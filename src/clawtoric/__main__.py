"""Entry point for ``python -m clawtoric``; the same as the ``clawtoric`` script."""

from .cli import main

raise SystemExit(main())
