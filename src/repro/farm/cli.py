"""``repro-farm``: inspect and manage the content-addressed result cache.

Usage::

    repro-farm stats                     # entry counts, bytes, root
    repro-farm stats --json              # machine-readable
    repro-farm gc --max-age-days 30      # drop stale entries
    repro-farm gc --keep 1000            # keep only the newest 1000
    repro-farm clear                     # drop everything
    repro-farm scrub                     # verify checksums, quarantine
    repro-farm scrub --remove            # ... or delete corrupt entries

Every command covers both the results and the stored workload traces
under ``traces/`` (``gc --keep N`` keeps the newest N of each).

The cache root is ``--cache-dir``, else ``$REPRO_FARM_CACHE``, else
``~/.cache/repro-farm``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.errors import cli_errors
from repro.farm.cache import ResultCache


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-farm",
        description="Manage the sweep farm's content-addressed result cache.",
    )
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="cache root (default: $REPRO_FARM_CACHE or "
                             "~/.cache/repro-farm)")
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="show cache size and contents")
    stats.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")
    stats.add_argument("--entries", action="store_true",
                       help="also list every entry's metadata")

    gc = sub.add_parser("gc", help="drop stale or excess entries")
    gc.add_argument("--max-age-days", type=float, default=None,
                    help="drop entries older than this many days")
    gc.add_argument("--keep", type=int, default=None,
                    help="keep only the newest N entries")

    sub.add_parser("clear", help="drop every cache entry")

    scrub = sub.add_parser(
        "scrub", help="verify every entry's checksum; corrupt entries "
                      "are quarantined (get only finds corruption lazily)")
    scrub.add_argument("--remove", action="store_true",
                       help="delete corrupt entries instead of moving "
                            "them into quarantine/")
    scrub.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")
    return parser


def _cmd_stats(cache: ResultCache, args) -> int:
    info = cache.stats()
    # Session counters are meaningless for a fresh CLI process.
    for key in ("hits", "misses", "stores", "corrupt_dropped", "hit_rate"):
        info.pop(key, None)
    if args.json:
        if args.entries:
            info["entry_meta"] = [meta for _, meta in cache.entries()]
        print(json.dumps(info, indent=1))
        return 0
    print(f"cache root : {info['root']}")
    print(f"entries    : {info['entries']}")
    print(f"size       : {info['bytes'] / 1024:.1f} KiB")
    print(f"traces     : {info['trace_entries']} "
          f"({info['trace_bytes'] / 1024:.1f} KiB)")
    if args.entries:
        for path, meta in cache.entries():
            label = meta.get("label", "?")
            instr = meta.get("instructions", 0)
            print(f"  {path.stem[:16]}…  {label}  ({instr:,} instr)")
    return 0


@cli_errors
def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    cache = ResultCache(args.cache_dir)
    if args.command == "stats":
        return _cmd_stats(cache, args)
    if args.command == "gc":
        if args.max_age_days is None and args.keep is None:
            print("gc: pass --max-age-days and/or --keep", file=sys.stderr)
            return 2
        removed = cache.gc(max_age_days=args.max_age_days, keep=args.keep)
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'}")
        return 0
    if args.command == "clear":
        removed = cache.clear()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'}")
        return 0
    if args.command == "scrub":
        summary = cache.scrub(quarantine=not args.remove)
        if args.json:
            print(json.dumps(summary, indent=1))
        else:
            disposal = (f"{summary['removed']} removed" if args.remove
                        else f"{summary['quarantined']} quarantined into "
                             f"{summary['quarantine_dir']}")
            print(f"scrubbed {summary['checked']} entries: "
                  f"{summary['ok']} ok, {summary['corrupt']} corrupt "
                  f"({disposal})")
        return 1 if summary["corrupt"] else 0
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
