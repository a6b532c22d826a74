"""``python3 -m bench`` entry point."""

from bench.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
