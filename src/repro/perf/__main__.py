"""``python -m repro.perf`` — check the golden schedule fingerprints."""

from repro.perf.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
