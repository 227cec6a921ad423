"""``python -m cevians``: the ``cevians`` command line."""
from .cli import main

raise SystemExit(main())
