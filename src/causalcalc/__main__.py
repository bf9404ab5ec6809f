"""``python -m causalcalc``: the ``causalcalc`` command."""

import sys

from .cli import main

sys.exit(main())
