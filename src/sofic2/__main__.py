"""`python -m sofic2`: the command-line front end, as the `sofic2` script."""

from .cli import main

raise SystemExit(main())
