"""Command-line frontend: file formats, JSON output, scripted runs.

Exit codes report what the mathematics said, not merely whether the process
survived: 0 for a positive or complete answer, 1 for a definite negative,
2 when a search cap was hit first (unknown / truncated), 3 for unusable
input.  A scripted caller can therefore distinguish refutation from
truncation without parsing anything.

All JSON output is deterministic (sorted keys, fixed indentation) and
embeds the caps that bounded the run together with every exactness flag
that qualifies the result.

One table, ``_COMMANDS``, describes every command: the module of
``diagram_groups.commands`` that holds its handler, the handler, the flag
groups it takes (``_GROUPS``: the caps, ``--format`` with or without
``dot``, ``-p`` and ``-w``) and its own extra arguments.  Only ``reduce``,
``compose``, ``squier``, ``relate``, ``farley`` and ``decompose`` offer
``--format dot``.  When the first argument names a command, ``main`` builds
the parser with that one subparser; ``--help``, an unknown command and a
bare ``_build_parser()`` get all of them, and a subparser is built the same
either way, so every help text and error message is too.  Before dispatch,
``main`` checks the flags and loads the shared inputs once
(:func:`_load_inputs`), so every handler reads ``ns.caps``, ``ns.pres`` and
its words already validated, and asks every class search of the call
through the one ``ns.search``.  Then it imports the command's handler
module, and this module keeps only that plumbing.

At load the module imports only the standard library and ``rewriting``,
which every command needs, and a handler module imports what its commands
share, so a call compiles and runs only the modules its command reaches:

* ``class`` and ``dim`` (``commands.words``): nothing beyond ``rewriting``;
* ``equal``, ``reduce`` and ``compose`` (``commands.diagrams``): ``diagrams``;
* ``squier``, ``hyperplanes``, ``relate``, ``rank-table``, ``special`` and
  ``phi`` (``commands.squier``): ``squier``, and ``special`` also
  ``special``, ``phi`` also ``diagrams`` and ``raag``;
* ``farley`` and ``propb`` (``commands.farley``): ``diagrams`` and
  ``farley``, and ``embed-check`` also ``squier``;
* ``decompose`` and ``euler`` (``commands.decompose``): ``diagrams``,
  ``squier`` and ``decomposition``;
* ``interval`` and ``verify-raag`` (``commands.interval``): ``diagrams``,
  ``raag`` and ``interval``.

Names used only in annotations are imported for type checkers alone.  The
package's records are named tuples and classes with written-out methods,
so importing a module generates and compiles no record methods, and no
call loads ``inspect``.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import import_module
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from .rewriting import (
    ClassSearch,
    Presentation,
    PresentationError,
    SearchCaps,
    TriBool,
    parse_presentation,
    word_of,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .diagrams import Diagram

EXIT_OK = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3

#: the cap flags by name, with their defaults
_CAP_DEFAULTS = SearchCaps().as_dict()


class CliError(Exception):
    """Bad input (missing file, malformed format, unusable combination)."""


# ---------------------------------------------------------------------------
# input plumbing
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from None


def _load_inputs(ns: argparse.Namespace) -> None:
    """Check the flags the parser cannot and load the shared inputs: sets
    ``ns.caps`` from the cap flags, ``ns.pres`` from ``-p``, ``ns.search``
    as the call's one class search over both, and replaces the words of
    ``-w``, ``-w1`` and ``-w2`` by checked words of ``ns.pres``."""
    caps = {name: getattr(ns, name) for name in _CAP_DEFAULTS if name in ns}
    try:
        ns.caps = SearchCaps(**caps)
    except ValueError as e:
        raise CliError(str(e)) from None
    for count in ("radius", "length", "depth", "n"):
        if getattr(ns, count, 0) < 0:
            raise CliError(f"{count} must be nonnegative")
    if "presentation" not in ns:
        return
    try:
        ns.pres = parse_presentation(_read(ns.presentation))
    except PresentationError as e:
        raise CliError(f"{ns.presentation}: {e}") from None
    ns.search = ClassSearch(ns.pres, ns.caps)
    for key in ("w", "w1", "w2"):
        if key in ns:
            setattr(ns, key, word_of(getattr(ns, key)))
            ns.pres.check_word(getattr(ns, key))


def _load_diagram(path: str, pres: Presentation) -> Diagram:
    from .diagrams import parse_diagram

    try:
        return parse_diagram(_read(path), pres)
    except (PresentationError, ValueError) as e:
        raise CliError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _emit_json(obj: object) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _emit_unknown(ns: argparse.Namespace, head: Dict[str, object], reason: str) -> int:
    """Report an unknown verdict and why; ``head`` leads the JSON object."""
    if ns.format == "text":
        print("verdict: unknown")
        print(f"reason: {reason}")
    else:
        _emit_json(
            {
                **head,
                "verdict": "unknown",
                "reason": reason,
                "exact": False,
                "caps": ns.caps.as_dict(),
            }
        )
    return EXIT_UNKNOWN


def _exit_for(tb: TriBool) -> int:
    return {"yes": EXIT_OK, "no": EXIT_NO, "unknown": EXIT_UNKNOWN}[tb.value]


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------


def ratio(text: str) -> Optional[Fraction]:
    """A ratio bound; the empty string sets none.  Argparse names this
    function in its error messages."""
    from fractions import Fraction

    try:
        return Fraction(text) if text else None
    except ZeroDivisionError:
        raise ValueError(text) from None


#: an argument: its flags and the keywords of ``add_argument``; the
#: arguments marked ``one_of`` form a group of which exactly one is given
_Arg = Tuple[Tuple[str, ...], Dict[str, object]]


def _arg(*flags: str, **kwargs: object) -> _Arg:
    return flags, kwargs


#: flag groups, shared by many commands, each added in this order
_GROUPS: Dict[str, Tuple[_Arg, ...]] = {
    "caps": tuple(
        _arg("--" + name.replace("_", "-"), type=int, default=default)
        for name, default in _CAP_DEFAULTS.items()
    ),
    "text": (_arg("--format", choices=("json", "text"), default="json"),),
    "dot": (_arg("--format", choices=("json", "dot", "text"), default="json"),),
    "pres": (_arg("-p", "--presentation", required=True),),
    "word": (_arg("-w", "--word", dest="w", required=True),),
}
_PLAIN = ("caps", "text", "pres", "word")
_DRAWN = ("caps", "dot", "pres", "word")
_DIAGRAM = _arg("-d", "--diagram", required=True)
_RADIUS = _arg("--radius", type=int, required=True)

#: command -> (handler module in ``commands``, handler, flag groups, extra arguments)
_COMMANDS: Dict[str, Tuple[str, str, Tuple[str, ...], Tuple[_Arg, ...]]] = {
    "class": ("words", "run_class", _PLAIN, ()),
    "equal": (
        "diagrams", "run_equal", ("caps", "text", "pres"),
        (_arg("-w1", required=True), _arg("-w2", required=True)),
    ),
    "reduce": ("diagrams", "run_reduce", ("dot", "pres"), (_DIAGRAM,)),
    "compose": (
        "diagrams", "run_compose", ("dot", "pres"),
        (
            _arg("-d1", required=True),
            _arg("-d2", required=True),
            _arg("--reduce", action="store_true"),
        ),
    ),
    "squier": ("squier", "run_squier", _DRAWN, ()),
    "hyperplanes": ("squier", "run_hyperplanes", _PLAIN, ()),
    "relate": ("squier", "run_relate", _DRAWN, ()),
    "special": ("squier", "run_special", _PLAIN, ()),
    "dim": ("words", "run_dim", _PLAIN, (_arg("-n", type=int, required=True),)),
    "rank-table": ("squier", "run_rank_table", _PLAIN, ()),
    "phi": ("squier", "run_phi", _PLAIN, (_DIAGRAM,)),
    "farley": ("farley", "run_farley", _DRAWN, (_RADIUS,)),
    "embed-check": ("farley", "run_embed_check", _PLAIN, (_RADIUS,)),
    "propb": (
        "farley", "run_propb", _PLAIN,
        (
            _arg("-g", "--generator", action="append", required=True, metavar="DIAGRAM"),
            _arg("--length", type=int, required=True),
            _arg("--min-ratio", type=ratio, default=None),
            _arg("--max-ratio", type=ratio, default=None),
        ),
    ),
    "decompose": (
        "decompose", "run_decompose", _DRAWN, (_arg("--depth", type=int, default=1),)
    ),
    "euler": ("decompose", "run_euler", _PLAIN, ()),
    "interval": (
        "interval", "run_interval", ("text",),
        (_arg("-i", "--intervals", one_of=True), _arg("-g", "--graph", one_of=True)),
    ),
    "verify-raag": (
        "interval", "run_verify_raag", ("caps", "text"),
        (
            _arg("-i", "--intervals", required=True),
            _arg("--length", type=int, default=3),
        ),
    ),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(message)


def _build_parser(command: Optional[str] = None) -> _Parser:
    """The parser of every command, or of ``command`` alone."""
    parser = _Parser(prog="diagram-groups")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name in _COMMANDS if command is None else (command,):
        _, _, groups, extra = _COMMANDS[name]
        p = sub.add_parser(name)
        for flags, kwargs in (arg for group in groups for arg in _GROUPS[group]):
            p.add_argument(*flags, **kwargs)
        one_of = None
        for flags, kwargs in extra:
            if kwargs.get("one_of"):
                one_of = one_of or p.add_mutually_exclusive_group(required=True)
                one_of.add_argument(*flags)
            else:
                p.add_argument(*flags, **kwargs)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        known = args[0] if args and args[0] in _COMMANDS else None
        ns = _build_parser(known).parse_args(args)
        if ns.command is None:
            raise CliError("no subcommand given (try --help)")
        _load_inputs(ns)
        module, handler, _, _ = _COMMANDS[ns.command]
        return getattr(import_module(".commands." + module, __package__), handler)(ns)
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except (CliError, PresentationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


__all__ = ["CliError", "main"]
