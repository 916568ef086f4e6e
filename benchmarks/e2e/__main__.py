"""``python -m benchmarks.e2e [compare PARENT_DIR CHANGE_DIR | options]``."""

import sys

if sys.argv[1:2] == ["compare"]:
    from benchmarks.e2e.compare import main

    sys.exit(main(sys.argv[2:]))

from benchmarks.e2e.bench import main  # noqa: E402

sys.exit(main(sys.argv[1:]))
