"""python -m tautilt: the command line interface, as the tautilt script."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
