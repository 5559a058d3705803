"""Command line interface.

One binary with subcommands:

    fan-check   validate a fan, report smoothness, class group, pairs, triples
    degree      boundary intersection numbers and corner data for a curve
    classify    low degree classification plus the full witness scan
    verdict     cover family verdict for (fan, curve, genus, cover degree)
    dims        evaluate a dimension formula on bare integers
    render      write a deterministic SVG of the fan or the polygon pair

Input documents are JSON, read from a file argument or stdin ("-"):

    {"fan": {...}, "curve": {...},
     "genus": 2, "cover_degree": 2, "image_genus_branch": 0}

Exit codes: 0 success, 1 parse or usage error, 2 invalid mathematical
input, 3 input/output failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classify import (
    bn_verdict,
    classify,
    expected_dim_maps_projective,
    expected_dim_maps_surface,
    farkas_expected_dim,
    line_witness_scan,
    multiple_cover_excess,
    rho,
    severi_dim,
    to_json,
)
from .errors import DomainError, SchemaError
from .fan import (
    class_group,
    fan_from_json,
    opposite_ray_pairs,
    smoothness,
    zero_sum_triples,
)
from .newton import analyze, curve_from_json
from .svg import render_fan_svg, render_polygons_svg

_FORMULAS = {
    "rho": (rho, ("genus", "r", "d")),
    "maps-projective": (expected_dim_maps_projective, ("genus", "r", "d")),
    "maps-surface": (expected_dim_maps_surface, ("genus", "deg_k")),
    "severi": (severi_dim, ("genus", "deg_k")),
    "farkas": (farkas_expected_dim, ("genus", "r", "deg_k_y")),
    "excess": (multiple_cover_excess, ("genus", "m", "image_deg_k")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricbn",
        description="Exact boundary degrees, curve classification and "
        "dimension counts on smooth toric surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_doc(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument(
            "input",
            nargs="?",
            default="-",
            help="path of the JSON input document, or - for stdin (default)",
        )
        return common(p)

    def common(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--json", action="store_true", help="machine readable output")
        p.add_argument(
            "--assume-integral",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="record that input curves are taken to be reduced and "
            "irreducible; the combinatorics never checks this",
        )
        return p

    with_doc(sub.add_parser("fan-check", help="validate a fan and report its data"))
    with_doc(sub.add_parser("degree", help="boundary intersection numbers of a curve"))
    with_doc(sub.add_parser("classify", help="low degree classification and witnesses"))

    v = with_doc(sub.add_parser("verdict", help="cover family verdict"))
    v.add_argument("--genus", type=int, help="genus of the covering curve")
    v.add_argument("--cover-degree", type=int, help="degree m of the cover")
    v.add_argument(
        "--image-genus",
        type=int,
        choices=(0, 1),
        help="genus of the image curve for m >= 2 (default 0)",
    )

    d = sub.add_parser("dims", help="evaluate one dimension formula")
    d.add_argument("formula", choices=sorted(_FORMULAS))
    d.add_argument("values", nargs="+", type=int, help="integer arguments")
    common(d)

    r = with_doc(sub.add_parser("render", help="write a deterministic SVG"))
    r.add_argument("--target", choices=("fan", "polygons"), required=True)
    r.add_argument("--out", required=True, help="output SVG path")
    return parser


def _load_doc(path: str) -> dict:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply") from None
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        raise SchemaError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("input document must be a JSON object")
    return doc


def _doc_fan(doc: dict):
    if "fan" not in doc:
        raise SchemaError("input document needs a 'fan' entry")
    return fan_from_json(doc["fan"])


def _doc_curve(doc: dict):
    if "curve" not in doc:
        raise SchemaError("input document needs a 'curve' entry")
    return curve_from_json(doc["curve"])


def _doc_int(doc: dict, key: str, override, required: bool = True):
    if override is not None:
        return override
    if key in doc:
        v = doc[key]
        if not isinstance(v, int) or isinstance(v, bool):
            raise SchemaError(f"'{key}' must be an integer")
        return v
    if required:
        raise SchemaError(f"missing '{key}' (give it in the document or as a flag)")
    return None


# ---------------------------------------------------------------------------
# command handlers, each returning the report: a dictionary of plain values
# and library records, which to_json turns into plain JSON


def _cmd_fan_check(args) -> dict:
    doc = _load_doc(args.input)
    fan = _doc_fan(doc)
    rep = smoothness(fan)
    return {
        "command": "fan-check",
        "fan": fan,
        "ray_count": fan.ray_count,
        "smooth": rep.smooth,
        "cone_indices": rep.cone_indices,
        "class_group": class_group(fan),
        "opposite_ray_pairs": [
            {"indices": (i, j), "rays": (fan.rays[i], fan.rays[j])}
            for i, j in opposite_ray_pairs(fan)
        ],
        "zero_sum_triples": [
            {"indices": t, "fake_plane": p} for t, p in zero_sum_triples(fan)
        ],
    }


def _cmd_degree(args) -> dict:
    doc = _load_doc(args.input)
    fan = _doc_fan(doc)
    curve = _doc_curve(doc)
    analysis = analyze(fan, curve)
    deltas = analysis.intersections()
    hull = analysis.hull
    return {
        "command": "degree",
        "fan": fan,
        "curve": curve,
        "boundary_intersections": deltas,
        "anticanonical_degree": sum(deltas),
        "arithmetic_genus": analysis.genus,
        "diagnostics": {
            "smoothness": analysis.smoothness,
            "assume_integral": bool(args.assume_integral),
        },
        "newton_polygon": {"kind": hull.kind, "vertices": hull.vertices},
        "support_lines": [
            {"ray": sl.ray, "level": sl.line.level, "argmin": sl.argmin}
            for sl in analysis.lines
        ],
        "edges": analysis.circumscribed().edges,
    }


def _orientation_note(fan, curve, cls) -> dict | None:
    """When the fan carries a singular zero sum triple, check whether the
    classification flips on the negated fan.  A disagreement usually means
    the triple was written down with the wrong sign convention."""
    if not any(not p.is_projective_plane for _, p in zero_sum_triples(fan)):
        return None
    neg = fan.negated()
    neg_cls = classify(neg, curve)
    if (neg_cls.tag, neg_cls.degree) == (cls.tag, cls.degree):
        return None
    return {
        "message": (
            "orientation sensitive: the same curve on the negated fan "
            "classifies differently; check the sign convention of the "
            "singular triple"
        ),
        "negated_fan": neg,
        "negated_tag": neg_cls.tag,
        "negated_degree": neg_cls.degree,
    }


def _cmd_classify(args) -> dict:
    doc = _load_doc(args.input)
    fan = _doc_fan(doc)
    curve = _doc_curve(doc)
    cls = classify(fan, curve)
    witnesses = line_witness_scan(fan, curve)
    return {
        "command": "classify",
        "fan": fan,
        "curve": curve,
        "classification": cls,
        "witnesses": witnesses,
        "diagnostics": {
            "smoothness": smoothness(fan),
            "assume_integral": bool(args.assume_integral),
            "orientation_note": _orientation_note(fan, curve, cls),
        },
    }


def _cmd_verdict(args) -> dict:
    doc = _load_doc(args.input)
    fan = _doc_fan(doc)
    curve = _doc_curve(doc)
    genus = _doc_int(doc, "genus", args.genus)
    m = _doc_int(doc, "cover_degree", args.cover_degree)
    image_genus = _doc_int(doc, "image_genus_branch", args.image_genus, required=False)
    verdict = bn_verdict(
        genus, m, fan=fan, curve=curve, image_genus=0 if image_genus is None else image_genus
    )
    return {
        "command": "verdict",
        "fan": fan,
        "curve": curve,
        "verdict": verdict,
    }


def _cmd_dims(args) -> dict:
    func, names = _FORMULAS[args.formula]
    if len(args.values) != len(names):
        raise SchemaError(
            f"{args.formula} takes {len(names)} arguments {names}, "
            f"got {len(args.values)}"
        )
    value = func(*args.values)
    return {
        "command": "dims",
        "formula": args.formula,
        "arguments": args.values,
        "argument_names": names,
        "value": value,
    }


def _cmd_render(args) -> dict:
    doc = _load_doc(args.input)
    fan = _doc_fan(doc)
    if args.target == "fan":
        svg = render_fan_svg(fan)
    else:
        svg = render_polygons_svg(fan, _doc_curve(doc))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return {
        "command": "render",
        "target": args.target,
        "out": args.out,
        "bytes": len(svg.encode("utf-8")),
    }


_HANDLERS = {
    "fan-check": _cmd_fan_check,
    "degree": _cmd_degree,
    "classify": _cmd_classify,
    "verdict": _cmd_verdict,
    "dims": _cmd_dims,
    "render": _cmd_render,
}


# ---------------------------------------------------------------------------
# plain text rendering of a report


def _human_lines(value, key: str | None = None, indent: int = 0) -> list[str]:
    pad = "  " * indent
    label = f"{key}: " if key is not None else ""
    if isinstance(value, dict):
        lines = [f"{pad}{label}".rstrip()] if key is not None else []
        for k in value:
            lines.extend(_human_lines(value[k], k, indent + (1 if key is not None else 0)))
        return lines
    if isinstance(value, list):
        if all(not isinstance(t, (dict, list)) for t in value):
            return [f"{pad}{label}{json.dumps(value)}"]
        lines = [f"{pad}{label}".rstrip()]
        for item in value:
            lines.extend(_human_lines(item, None, indent + 1))
            lines.append(f"{'  ' * (indent + 1)}-")
        if lines and lines[-1].endswith("-"):
            lines.pop()
        return lines
    return [f"{pad}{label}{json.dumps(value)}"]


def _format(report: dict, as_json: bool) -> str:
    """The printed form of a report, as JSON or as plain text.  The only
    ValueError printing raises is an integer above the interpreter's digit
    limit for string conversion (a Fraction prints its integers too)."""
    try:
        doc = to_json(report)
        if as_json:
            return json.dumps(doc, sort_keys=True, indent=2)
        return "\n".join(_human_lines(doc))
    except ValueError:
        raise DomainError(
            f"an output number exceeds the {sys.get_int_max_str_digits()}-digit "
            "limit for integer string conversion"
        ) from None


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        text = _format(_HANDLERS[args.command](args), args.json)
    except SchemaError as exc:
        print(f"toricbn: parse error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"toricbn: invalid input: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"toricbn: io error: {exc}", file=sys.stderr)
        return 3
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
