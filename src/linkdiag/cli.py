"""Command-line surface: analyze, homfly, certify, braidize, reduce, selftest.

JSON output (``--json``) is the stable contract; text output is for
humans.  Exit codes: 0 ok, 2 input error, 3 size limit, 4 witness
mismatch or certificate contradiction.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import sys

from . import __version__
from .braids import closure, parse_braid, serialize_braid, witness_from_json
from .diagram import Diagram, counts, import_pd, mirror, parse_diagram, serialize_diagram
from .errors import (
    LinkdiagError,
    SizeLimitError,
    WitnessMismatchError,
)
from .graph_index import ind_all
from .homfly import homfly
from .seifert import seifert_analysis
from .theorems import certify, index_bounds, mirror_identity_check, mp_reduce

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SIZE = 3
EXIT_WITNESS = 4


def load_diagram_file(path: str) -> tuple[Diagram, bytes]:
    with open(path, "rb") as fh:
        data = fh.read()
    text = data.decode("utf-8")
    stripped = text.lstrip()
    if stripped.startswith("braid"):
        d = closure(parse_braid(text))
    elif stripped.startswith("X["):
        d = import_pd(text)
    else:
        d = parse_diagram(text)
    return d, data


def _report(command: str, data: bytes, result: dict, warnings_list: list[str]) -> dict:
    return {
        "version": __version__,
        "input_digest": hashlib.sha256(data).hexdigest(),
        "command": command,
        "result": result,
        "warnings": warnings_list,
    }


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True))
    else:
        _print_human(report)


def _print_human(report: dict, indent: str = "") -> None:
    print(f"{indent}{report['command']}:")
    _print_obj(report["result"], indent + "  ")
    for w in report["warnings"]:
        print(f"{indent}warning: {w}", file=sys.stderr)


def _print_obj(obj, indent: str) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, (dict, list)):
                print(f"{indent}{key}:")
                _print_obj(value, indent + "  ")
            else:
                print(f"{indent}{key}: {value}")
    elif isinstance(obj, list):
        for value in obj:
            _print_obj(value, indent)
    else:
        print(f"{indent}{obj}")


def _homogeneity_obj(report) -> dict:
    return {
        "is_homogeneous": report.is_homogeneous,
        "is_reduced": report.is_reduced,
        "is_special": report.is_special,
        "is_positive_diagram": report.is_positive_diagram,
        "factors": [
            {"vertices": sorted(f.vertices), "edges": list(f.edge_ids), "sign": f.sign}
            for f in report.factors
        ],
    }


def _index_obj(idx) -> dict:
    return {
        "ind": idx.ind,
        "ind_plus": idx.ind_plus,
        "ind_minus": idx.ind_minus,
        "size_limited": idx.size_limited,
    }


def cmd_analyze(args) -> int:
    d, data = load_diagram_file(args.file)
    c = counts(d)
    analysis = seifert_analysis(d)
    idx = ind_all(analysis.graph, args.max_vertices)
    hom = analysis.homogeneity
    result = {
        "counts": {
            "c_plus": c.c_plus,
            "c_minus": c.c_minus,
            "writhe": c.writhe,
            "link_components": c.link_components,
            "split_parts": c.split_parts,
        },
        "seifert": {"O": analysis.circle_count, "O_plus": analysis.o_plus, "sl": analysis.sl},
        "homogeneity": _homogeneity_obj(hom),
        "index": _index_obj(idx),
        "is_positive": hom.is_positive_diagram,
    }
    warnings_list = []
    try:
        b = index_bounds(d, analysis.circle_count, idx, args.max_crossings)
        result["bounds"] = dataclasses.asdict(b)
        if b.lower_omitted:
            warnings_list.append("MFW lower bound omitted: crossing cap exceeded")
    except SizeLimitError as exc:
        warnings_list.append(str(exc))
    _emit(_report("analyze", data, result, warnings_list), args.json)
    return EXIT_OK


def cmd_homfly(args) -> int:
    d, data = load_diagram_file(args.file)
    p = homfly(d, args.max_crossings)
    result = {"terms": p.triples(), "string": str(p)}
    _emit(_report("homfly", data, result, []), args.json)
    return EXIT_OK


def cmd_certify(args) -> int:
    d, data = load_diagram_file(args.file)
    with open(args.witness, encoding="utf-8") as fh:
        witness = witness_from_json(fh.read())
    cert = certify(witness, d, args.mode, args.max_crossings, args.max_vertices)
    verified = next(h.value for h in cert.hypothesis_trace if h.name == "witness-verified")
    warnings_list = [] if verified else ["witness not verified: crossing cap exceeded"]
    _emit(_report("certify", data, cert.to_json_obj(), warnings_list), args.json)
    return EXIT_WITNESS if cert.status == "Contradiction" else EXIT_OK


def cmd_braidize(args) -> int:
    from .vogel import vogel_braidize

    d, data = load_diagram_file(args.file)
    word = vogel_braidize(d)
    result = {
        "strands": word.strands,
        "letters": list(word.letters),
        "text": serialize_braid(word),
    }
    _emit(_report("braidize", data, result, []), args.json)
    return EXIT_OK


def cmd_reduce(args) -> int:
    d, data = load_diagram_file(args.file)
    reduced = mp_reduce(d, args.crossing, args.max_crossings)
    result = {
        "arcs": reduced.arc_count,
        "loops": reduced.free_loops,
        "text": serialize_diagram(reduced),
    }
    _emit(_report("reduce", data, result, []), args.json)
    return EXIT_OK


def cmd_selftest(args) -> int:
    rng = random.Random(7)
    checks = []
    for _ in range(50):
        n = rng.randint(2, 4)
        word = parse_braid(
            f"braid n={n}: " + " ".join(
                str(rng.choice([i for i in range(-(n - 1), n) if i])) for _ in range(rng.randint(1, 6))
            )
        )
        d = closure(word)
        mic = mirror_identity_check(d)
        checks.append(("mirror-identity", mic["ok"]))
        analysis = seifert_analysis(d)
        checks.append(("closure-O", analysis.circle_count == n))
        idx = ind_all(analysis.graph)
        midx = ind_all(seifert_analysis(mirror(d)).graph)
        checks.append(("mirror-ind-swap", idx.ind_plus == midx.ind_minus))
    ok = all(flag for _name, flag in checks)
    result = {"checks": len(checks), "passed": sum(1 for _n, f in checks if f), "ok": ok}
    _emit(_report("selftest", b"", result, []), args.json)
    return EXIT_OK if ok else EXIT_INPUT


class _Parser(argparse.ArgumentParser):
    """Its errors reach ``run`` as one ``error:`` line; subparsers inherit it."""

    def error(self, message: str):
        raise LinkdiagError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="linkdiag")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--max-crossings", type=int, default=16)
        p.add_argument("--max-vertices", type=int, default=14)

    p = sub.add_parser("analyze", help="counts, Seifert data, homogeneity, index, bounds")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("homfly", help="HOMFLY polynomial")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_homfly)

    p = sub.add_parser("certify", help="positivity certificate from a quasipositive witness")
    p.add_argument("file")
    p.add_argument("--witness", required=True)
    p.add_argument("--mode", required=True, choices=["thm1", "thm4", "cor_mp"])
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("braidize", help="convert a connected diagram to a closed braid")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_braidize)

    p = sub.add_parser("reduce", help="remove a lone cut-edge crossing")
    p.add_argument("file")
    p.add_argument("--crossing", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("selftest", help="run the quick identity/property suite")
    common(p)
    p.set_defaults(func=cmd_selftest)
    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except WitnessMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WITNESS
    except (LinkdiagError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
