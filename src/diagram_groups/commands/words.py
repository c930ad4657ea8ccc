"""``class`` and ``dim``: questions answered from class searches alone."""

from __future__ import annotations

import argparse

from ..cli import EXIT_OK, EXIT_UNKNOWN, _emit_json, _exit_for
from ..rewriting import dimension_at_least, format_word


def run_class(ns: argparse.Namespace) -> int:
    enum = ns.search.enum(ns.w)
    if ns.format == "text":
        for m in enum.members:
            print(format_word(m))
        print(f"# {len(enum.members)} members, complete={enum.complete}")
    else:
        _emit_json(
            {
                "word": format_word(ns.w),
                "members": [format_word(m) for m in enum.members],
                "count": len(enum.members),
                "complete": enum.complete,
                "caps": ns.caps.as_dict(),
            }
        )
    return EXIT_OK if enum.complete else EXIT_UNKNOWN


def run_dim(ns: argparse.Namespace) -> int:
    tb = dimension_at_least(ns.search, ns.w, ns.n)
    witness: object = None
    if tb.is_yes and tb.witness is not None:
        witness = {
            "member": format_word(tb.witness.member),
            "factors": [format_word(f) for f in tb.witness.factors()],
        }
    elif tb.is_no:
        witness = tb.witness  # a textual certificate
    if ns.format == "text":
        print(tb.value)
    else:
        _emit_json(
            {
                "base": format_word(ns.w),
                "n": ns.n,
                "verdict": tb.value,
                "witness": witness,
                "caps": ns.caps.as_dict(),
            }
        )
    return _exit_for(tb)


__all__ = ["run_class", "run_dim"]
