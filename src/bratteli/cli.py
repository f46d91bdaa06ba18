"""Command-line interface for exact Bratteli-diagram computations.

Every numeric result is computed in exact rational arithmetic and printed
as a ``p/q`` string; pass ``--precision BITS`` to append decimal
approximations (the output then also carries a ``precision_bits`` field).
JSON output is deterministic: keys are sorted and the encoder is
byte-stable, so identical invocations produce identical bytes.

Exit codes: 0 on success, 1 on domain errors (bad arguments, malformed
specs, values outside a family's domain) and on usage errors, 2 when an
answer would require data beyond the supplied truncation depth or window.

Every subcommand is registered through ``_command`` and follows one
convention.  A command takes its resolved input first (a diagram builder
or a measure, when it has one), then its own options, and returns either
a JSON payload or ``(payload, header, rows[, approx_fields])`` when it has
a CSV form.  ``_command`` adds its argparse subparser at import, with the
input's option group, the command's own options and
``--out/--format/--precision`` in that order.  ``main`` does the rest: it
parses, resolves the input, calls the command, renders the result with
``_emit``, and maps ``TruncationIncompleteError`` to exit 2 and
``DiagramError`` to 1.

The argparse parser keeps one usage contract: a usage error exits 1 (argparse's 2 would
read as truncation-incomplete) under the usage of the parser that met it, no arguments
print the help to stderr and exit 1, no option is abbreviated, there is no ``-h``, and a
value option takes the next token whatever it starts with (``--coords -1,1``).
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import io
import json
import sys
from collections import Counter
from fractions import Fraction
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from math import gcd
from typing import NamedTuple

from . import __version__
from .core import (
    FAMILIES,
    BinftyDiagram,
    DiagramError,
    OdometerChainDiagram,
    TruncationIncompleteError,
    _FAMILY_TABLE,
    as_int,
    build_diagram,
    read_json,
    step_polynomial_coefficients,
    vertex_from_text,
)
from .extension import EXTENSION_CASES, run_extension_case
from .limits import (
    binfty_limit_vector,
    constant_top,
    index_ray,
    limit_along,
    normalized_product_row,
    pascal_limit_vector,
    pascal_ray,
)
from .linalg import _weighted_rows, continuity_profile, heights, heights_closed_form
from .measures import (
    BinftyMeasure,
    BinomialEdgeMeasure,
    OdometerColumnMeasure,
    PascalMeasure,
    StaircaseMeasure,
    completely_monotone_witness,
    difference_table,
    invariance_report,
    sample_paths,
)
from .vershik import (
    OrderedDiagram,
    PathRep,
    classify_descriptor,
    classify_extremal,
    descriptor_from_json,
    descriptor_to_json,
    mirror_descriptor,
    orbit_end,
    path_from_json,
    path_to_json,
    succ_pred,
    succ_pred_descriptor,
    vershik_inverse,
    vershik_step,
)

# ---------------------------------------------------------------------------
# parsing helpers (all failures raise DiagramError so they map to exit 1)
# ---------------------------------------------------------------------------

def _fraction(text, what="value"):
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise DiagramError("bad %s %r: %s" % (what, text, exc))


def _fraction_list(text, what="list"):
    items = [t.strip() for t in str(text).split(",") if t.strip()]
    if not items:
        raise DiagramError("empty %s" % what)
    return [_fraction(t, what) for t in items]


def _int_list(text, what="list"):
    try:
        return [int(t.strip()) for t in str(text).split(",") if t.strip()]
    except ValueError as exc:
        raise DiagramError("bad %s %r: %s" % (what, text, exc))


def _at_least_one(value, option):
    """``value`` unless it is given and below 1: an empty range proves no verdict."""
    if value is not None and value < 1:
        raise DiagramError("%s must be at least 1, got %d" % (option, value))
    return value


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fr(x):
    return str(x if isinstance(x, Fraction) else Fraction(x))


_pair_text = functools.lru_cache(maxsize=None)("[%d,%d]".__mod__)  # each (c, m) pair formatted once


@functools.lru_cache(maxsize=None)
def _vkey(v):
    """A vertex as JSON text: a Pascal key's cached pair texts joined, else ``str``."""
    if isinstance(v, tuple):
        return "[%s]" % ",".join(map(_pair_text, v))
    return str(v)


def _by_key_repr(item):
    return repr(item[0])


def _vertex_rows(values, key=_by_key_repr):
    """Lazy CSV rows [vertex, p/q] of a {vertex: rational} map, sorted by ``key``."""
    return lambda: [[_vkey(v), _fr(x)] for v, x in sorted(values.items(), key=key)]


def _digits(bits):
    # bits * log10(2), rounded up, floor 1
    return max(1, bits * 30103 // 100000 + 1)


def _decimal(value, digits):
    """Exact decimal rendering of a rational, half-up at the last digit."""
    x = Fraction(value)
    sign = "-" if x < 0 else ""
    scaled = abs(x) * 10 ** digits
    q = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
    whole, frac = divmod(q, 10 ** digits)
    return "%s%d.%0*d" % (sign, whole, digits, frac)


_CONTAINERS = (dict, list, tuple)


def _json_text(payload):
    """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte.

    ``indent`` makes ``json`` use its pure-Python encoder.  Here every dict
    or list whose items are all scalars goes through the C encoder instead,
    with ",\\n" plus the indent as its item separator, and the levels above
    are joined by hand in the order and layout ``json`` uses.  A dict with a
    key that is not a string is left to ``json`` itself.
    """
    encoders = {}

    def leaf(pad):
        if pad not in encoders:
            encoders[pad] = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                                           None, ": ", ",\n" + pad, True, False, True)
        return encoders[pad]

    def render(obj, pad):
        inner = pad + "  "
        if not isinstance(obj, _CONTAINERS):
            return "".join(leaf(inner)(obj, 0))
        is_dict = isinstance(obj, dict)
        if not obj:
            return "{}" if is_dict else "[]"
        if not any(map(isinstance, obj.values() if is_dict else obj, repeat(_CONTAINERS))):
            text = "".join(leaf(inner)(obj, 0))
            return "%s\n%s%s\n%s%s" % (text[0], inner, text[1:-1], pad, text[-1])
        if not is_dict:
            parts = [render(v, inner) for v in obj]
        elif all(isinstance(k, str) for k in obj):
            parts = [encode_basestring_ascii(k) + ": " + render(v, inner) for k, v in sorted(obj.items())]
        else:
            return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad)
        return "%s\n%s%s\n%s%s" % ("{" if is_dict else "[", inner, (",\n" + inner).join(parts), pad,
                                   "}" if is_dict else "]")

    return render(payload, "")


def _emit(out, fmt, precision, payload, header=None, rows=None,
          approx_fields=()):
    """Serialize ``payload`` deterministically to stdout or ``--out``.

    JSON goes through ``_json_text``, which renders the scalar leaves with
    the C encoder and keeps the bytes ``json.dumps(payload, indent=2,
    sort_keys=True)`` prints.  ``rows`` is a zero-argument callable
    returning the CSV rows under ``header``; it runs only for ``--format
    csv``.  ``approx_fields`` names keys of ``payload`` holding
    {key: Fraction-string} maps; with ``--precision`` (JSON only: CSV refuses
    it) each gains an ``approx_<name>`` companion.  A payload that states its own
    ``precision_bits`` (``sample``'s float statistics) keeps it and ignores
    ``--precision``.
    """
    if precision is not None and "precision_bits" not in payload:
        if precision < 1:
            raise DiagramError("--precision must be a positive bit count")
        if fmt == "csv":
            raise DiagramError("--precision has no CSV form; use --format json")
        payload = dict(payload)
        payload["precision_bits"] = precision
        digits = _digits(precision)
        for name in approx_fields:
            payload["approx_" + name] = {
                k: _decimal(Fraction(v), digits)
                for k, v in payload[name].items()
            }
    if fmt == "csv":
        if rows is None:
            raise DiagramError("this command has no CSV form; use --format json")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows())
        text = buf.getvalue()
    else:
        text = _json_text(payload) + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DiagramError("cannot write --out %s: %s" % (out, exc.strerror or exc)) from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# inputs: option groups and what their values resolve to
# ---------------------------------------------------------------------------

_SUB_SHORTHANDS = {
    "staircase": ("vertex", "staircase", "k"),
    "pascal-edge": ("edge", "pascal", "k"),
    "constant": ("vertex", "constant", "vertex"),
}


def _sub_spec(text):
    kind, _, param = str(text).partition(":")
    if kind not in _SUB_SHORTHANDS:
        raise DiagramError(
            "unknown subdiagram shorthand %r (expected staircase:K, "
            "pascal-edge:K, or constant:V)" % text)
    sub_kind, rule, field = _SUB_SHORTHANDS[kind]
    return {"kind": sub_kind, "rule": rule, field: as_int(param or 1, "%s %s" % (kind, field))}


class _DiagramArgs(NamedTuple):
    """The diagram option group as given; calling it builds the diagram."""

    family: str | None
    spec_file: str | None
    k_param: int | None
    a_rule: str | None
    sub_text: str | None

    def __call__(self):
        if self.spec_file:
            for option, value in (("--family", self.family), ("--k", self.k_param), ("--a", self.a_rule),
                                  ("--sub", self.sub_text)):
                if value is not None:
                    raise DiagramError("--spec FILE describes the whole diagram; drop %s" % option)
            try:
                with open(self.spec_file) as fh:
                    text = fh.read()
            except OSError as exc:
                raise DiagramError("cannot read spec file %s: %s" % (self.spec_file, exc))
            return build_diagram(read_json(text, "spec file %s" % self.spec_file))
        family = self.family
        if family is None:
            raise DiagramError("pass --family or --spec FILE")
        params, keys = {}, _FAMILY_TABLE[family][0]
        for option, key, value, what in (("--k", "k", self.k_param, ""),
                                         ("--a", "a", self.a_rule, " (entry rule)")):
            if key in keys and value is None:
                raise DiagramError("--family %s needs %s%s" % (family, option, what))
            if value is not None and key not in keys:
                raise DiagramError("--family %s does not read %s" % (family, option))
            if value is not None:
                params[key] = value
        return build_diagram({"family": family, "params": params,
                              "sub": self.sub_text and _sub_spec(self.sub_text)})


def _pascal_measure(d_text, coords_text):
    masses = _fraction_list(d_text, "direction")
    if coords_text is not None:
        coords = _int_list(coords_text, "coordinates")
        if len(coords) != len(masses):
            raise DiagramError("--coords and --d must have equal length")
        repeated = [c for c, count in Counter(coords).items() if count > 1]
        if repeated:
            raise DiagramError("coordinate %d is repeated in --coords" % repeated[0])
    else:
        coords = list(range(1, len(masses) + 1))
    return PascalMeasure(dict(zip(coords, masses)))


def _staircase_measure(a_text, k_param):
    return StaircaseMeasure(_fraction(a_text, "slope"), k_param)


def _measure(measure_name, d_text, coords_text, a_text, k_param, p_text,
             column):
    if measure_name == "pascal-mu":
        if d_text is None:
            raise DiagramError("pascal-mu needs --d (comma list of masses)")
        return _pascal_measure(d_text, coords_text)
    if measure_name == "binfty-mu":
        if a_text is None:
            raise DiagramError("binfty-mu needs --a (slope)")
        return BinftyMeasure(_fraction(a_text, "slope"))
    if measure_name == "staircase-nu":
        if a_text is None or k_param is None:
            raise DiagramError("staircase-nu needs --a and --k")
        return StaircaseMeasure(_fraction(a_text, "slope"), k_param)
    if measure_name == "edge-binomial":
        if p_text is None or k_param is None:
            raise DiagramError("edge-binomial needs --p and --k")
        return BinomialEdgeMeasure(_fraction(p_text, "edge weight"), k_param)
    if measure_name == "odometer-column":
        if a_text is None:
            raise DiagramError("odometer-column needs --a (entry rule)")
        return OdometerColumnMeasure(OdometerChainDiagram(a_text), column)
    raise DiagramError("unknown measure %r" % measure_name)


def _opt(flag, dest=None, **kwargs):
    """One option as ``(flag, add_argument keywords)``, its value shown as INTEGER, TEXT or [a|b]."""
    if "action" not in kwargs:
        choices = kwargs.get("choices")
        kwargs.setdefault("metavar", "[%s]" % "|".join(choices) if choices else
                          "INTEGER" if kwargs.get("type") is int else "TEXT")
        if kwargs.get("required"):
            kwargs["help"] += " [required]"
    return flag, dict(kwargs, dest=dest or flag[2:].replace("-", "_"))


# inputs name -> (its option group, the resolver its option values are passed to)
_INPUTS = {
    None: ((), None),
    "diagram": ((
        _opt("--family", choices=[f for f in FAMILIES if f != "custom"],
             help="Diagram family (or use --spec FILE)."),
        _opt("--spec", "spec_file", metavar="FILE",
             help="JSON file with {family, params, ...} and an optional 'sub' block."),
        _opt("--k", "k_param", type=int, help="Width parameter for pascal-k / bounded families."),
        _opt("--a", "a_rule", help="Odometer entry rule: an integer, a comma list, or 'pow2'."),
        _opt("--sub", "sub_text", help="Subdiagram shorthand: staircase:K, pascal-edge:K, or constant:V."),
    ), _DiagramArgs),
    "measure": ((
        _opt("--measure", "measure_name",
             choices=["pascal-mu", "binfty-mu", "staircase-nu", "edge-binomial", "odometer-column"],
             required=True, help="Measure family."),
        _opt("--d", "d_text", help="Comma list of direction masses for pascal-mu."),
        _opt("--coords", "coords_text", help="Comma list of coordinates matching --d (default 1..n)."),
        _opt("--a", "a_text", help="Slope (binfty-mu, staircase-nu) or odometer entry rule."),
        _opt("--k", "k_param", type=int, help="Subdiagram width for staircase-nu / edge-binomial."),
        _opt("--p", "p_text", help="Edge weight for edge-binomial."),
        _opt("--column", type=int, default=1, help="Column for odometer-column (default 1)."),
    ), _measure),
    "pascal-mu": ((
        _opt("--d", "d_text", required=True, help="Comma list of direction masses."),
        _opt("--coords", "coords_text", help="Comma list of coordinates matching --d."),
    ), _pascal_measure),
    "staircase-nu": ((
        _opt("--a", "a_text", required=True, help="Staircase slope."),
        _opt("--k", "k_param", type=int, default=2, help="Staircase width (default 2)."),
    ), _staircase_measure),
}

_OUTPUT_OPTS = (
    _opt("--out", metavar="FILE", help="Write output to FILE instead of stdout."),
    _opt("--format", "fmt", choices=["json", "csv"], default="json", help="Output format."),
    _opt("--precision", type=int, metavar="BITS", help="Append decimal approximations at this bit precision."),
)
_HELP = _opt("--help", action="help", help="Show this message and exit.")


# ---------------------------------------------------------------------------
# the parser and its one registration wrapper
# ---------------------------------------------------------------------------

class _HelpFormatter(argparse.HelpFormatter):
    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


class _Parser(argparse.ArgumentParser):
    """A parser that knows no ``-h`` and no abbreviated option, and whose usage errors exit 1."""

    def __init__(self, options=(), **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, formatter_class=_HelpFormatter, **kwargs)
        group = self.add_argument_group("Options")
        for flag, option in options:
            group.add_argument(flag, **option)

    def error(self, message):
        self.exit(1, "%sTry '%s --help' for help.\n\nError: %s\n" % (self.format_usage(), self.prog, message))

    def parse_known_args(self, args=None, namespace=None):
        """Refuse a token this parser does not know, so a command's own usage names it, not the group's."""
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: %s" % " ".join(extras))
        return namespace, extras


_PARSER = _Parser(
    prog="bratteli", usage="%(prog)s [OPTIONS] COMMAND [ARGS]...",
    description="Exact computations on generalized Bratteli diagrams.",
    options=(_opt("--version", action="version", version="bratteli, version " + __version__,
                  help="Show the version and exit."), _HELP))
_SUBPARSERS = _PARSER.add_subparsers(title="Commands", metavar="COMMAND", dest="command", required=True,
                                     prog="bratteli")

# command name -> (its function, its input's resolver, the option names the resolver reads)
COMMANDS = {}
_VALUE_FLAGS = set()  # every option that takes a value, in any command


def _command(*opts, name=None, inputs=None):
    """Register the decorated function as the subcommand ``name`` (by default its own name).

    ``inputs`` names an entry of ``_INPUTS``.  Its resolver's result is the
    command's first argument: a ``_DiagramArgs``, which the command calls
    when it needs the diagram (so a command that needs none builds none,
    and errors come in the command's order), or a built measure.
    """
    group, resolve = _INPUTS[inputs]

    def deco(fn):
        command, options = name or fn.__name__, group + opts + _OUTPUT_OPTS + (_HELP,)
        summary = inspect.getdoc(fn).partition("\f")[0].strip()
        _SUBPARSERS.add_parser(command, help=summary, description=summary, usage="%(prog)s [OPTIONS]",
                               options=options)
        _VALUE_FLAGS.update(flag for flag, option in options if "action" not in option)
        COMMANDS[command] = (fn, resolve, tuple(inspect.signature(resolve).parameters) if resolve else ())
        return fn
    return deco


_ORDER_OPT = _opt("--order", "order_name", default="left-to-right",
                  help="Edge order: left-to-right, alternating, natural or cyclic.")


# ---------------------------------------------------------------------------
# the commands
# ---------------------------------------------------------------------------

@_command(
    _opt("--level", type=int, required=True, help="Level to evaluate."),
    _opt("--window", type=int, help="Index bound cutting infinite levels to a finite window."),
    _opt("--vertex", "vertex_text", help="Single vertex instead of the whole window."),
    name="heights", inputs="diagram")
def heights_cmd(source, level, window, vertex_text):
    """Path-count heights at a level, with closed forms when available."""
    window = _at_least_one(window, "--window")
    diagram = source()
    values = heights(diagram, level, None if vertex_text is None else [vertex_from_text(vertex_text)],
                     window)
    payload = {
        "family": diagram.family,
        "level": level,
        "heights": {_vkey(v): str(h) for v, h in values.items()},
    }
    try:
        closed = heights_closed_form(diagram, level, values)
    except DiagramError:
        closed = None
    if closed is not None:
        payload["closed_form_agrees"] = closed == values
    return (payload, ["vertex", "height"],
            lambda: [[_vkey(v), str(h)] for v, h in values.items()])


@_command(
    _opt("--level", type=int, required=True, help="Target level (sources live one level down)."),
    _opt("--window", type=int, help="Index bound for infinite levels."),
    _opt("--vertex", "vertex_text", help="Single target vertex instead of the whole window."),
    inputs="diagram")
def stochastic(source, level, window, vertex_text):
    """Height-normalized incidence rows; each row sums to exactly 1."""
    window = _at_least_one(window, "--window")
    diagram = source()
    targets = None if vertex_text is None else [vertex_from_text(vertex_text)]
    # rows: _vkey(v) -> {_vkey(w): str(Fraction(x, H_v))}, from the reduced integers; buffered
    # because row_sums_one sorts before rows.  sources keeps each row's w for the CSV's repr order.
    # H_v is the target's closed-form height where there is one, so row_sums_one can fail.
    rows, sources, sums_one = {}, [], True
    for v, weights, hv in _weighted_rows(diagram, level, targets, window):
        row = {}
        for w, x in weights.items():
            g = gcd(x, hv)
            n, d = x // g, hv // g
            row[_vkey(w)] = "%d" % n if d == 1 else "%d/%d" % (n, d)
        sums_one = sums_one and sum(weights.values()) == hv
        rows[_vkey(v)] = row
        sources.append(list(weights))
    payload = {"family": diagram.family, "level": level, "rows": rows, "row_sums_one": sums_one}
    return payload, ["target", "source", "weight"], lambda: [
        [v, w, row[w]] for (v, row), ws in zip(rows.items(), sources) for w in map(_vkey, sorted(ws, key=repr))]


@_command(
    _opt("--level", type=int, required=True, help="Lower level n."),
    _opt("--m", "m_steps", type=int, required=True,
         help="Number of levels in the product (top level is n + m)."),
    _opt("--vertex", "vertex_text", required=True, help="Top vertex at level n + m."),
    _opt("--method", choices=["auto", "closed", "recursion"],
         default="auto", help="How to compute the normalized row."),
    inputs="diagram")
def product(source, level, m_steps, vertex_text, method):
    """Normalized m-step incidence row from a top vertex down to level n."""
    diagram = source()
    top = vertex_from_text(vertex_text)
    row = normalized_product_row(diagram, level, m_steps, top, method=method)
    payload = {
        "family": diagram.family,
        "level": level,
        "m": m_steps,
        "top": _vkey(top),
        "row": {_vkey(w): _fr(f) for w, f in row.items()},
        "row_sum": _fr(sum(row.values(), Fraction(0))),
    }
    return payload, ["vertex", "weight"], _vertex_rows(row), ("row",)


@_command(
    _opt("--level", type=int, help="Level the limit vector lives at (defaults to the base)."),
    _opt("--rule", choices=["constant", "ray", "pascal-ray"], help="How the tops march upward."),
    _opt("--vertex", "vertex_text", help="Fixed top vertex for --rule constant."),
    _opt("--slope", help="Rational slope for --rule ray."),
    _opt("--d", "d_text", help="Direction masses for --rule pascal-ray."),
    _opt("--closed-form", choices=["binfty", "pascal"],
         help="Emit a known limit vector instead of iterating (binfty reads its slope from --a)."),
    _opt("--window", type=int, default=20, help="Entries reported for infinite-support vectors."),
    _opt("--tol", default="1/1000000", help="Stopping tolerance for the iteration (exact rational)."),
    _opt("--m-max", type=int, default=200, help="Iteration budget before reporting non-convergence."),
    _opt("--method", choices=["auto", "closed", "recursion"], default="auto", help="Row computation method."),
    inputs="diagram")
def limits(source, level, rule, vertex_text, slope, d_text, closed_form,
           window, tol, m_max, method):
    """Limits of normalized incidence products along a march of tops."""
    window, m_max = _at_least_one(window, "--window"), _at_least_one(m_max, "--m-max")
    if closed_form is not None:
        if source.spec_file is not None:
            raise DiagramError("--closed-form %s reads no diagram; drop --spec" % closed_form)
        if closed_form == "binfty":
            if source.a_rule is None:
                raise DiagramError("--closed-form binfty needs --a")
            n = 1 if level is None else level
            BinftyDiagram().check_level(n)
            vector = binfty_limit_vector(_fraction(source.a_rule, "slope"), window)
            rows = _vertex_rows(vector, key=None)
        else:
            if d_text is None or level is None:
                raise DiagramError("--closed-form pascal needs --d and --level")
            n = level
            vector = pascal_limit_vector(_pascal_measure(d_text, None).d, n)
            rows = _vertex_rows(vector)
        payload = {
            "closed_form": closed_form,
            "level": n,
            "vector": {_vkey(v): _fr(x) for v, x in vector.items()},
            "mass_reported": _fr(sum(vector.values(), Fraction(0))),
        }
        return payload, ["vertex", "mass"], rows, ("vector",)
    diagram = source()
    n = diagram.base_level if level is None else level
    if rule is None:
        raise DiagramError("pass --rule (or --closed-form)")
    if rule == "constant":
        if vertex_text is None:
            raise DiagramError("--rule constant needs --vertex")
        top_rule = constant_top(vertex_from_text(vertex_text))
    elif rule == "ray":
        if slope is None:
            raise DiagramError("--rule ray needs --slope")
        top_rule = index_ray(_fraction(slope, "slope"))
    else:
        if d_text is None:
            raise DiagramError("--rule pascal-ray needs --d")
        top_rule = pascal_ray(_pascal_measure(d_text, None).d)
    result = limit_along(diagram, n, top_rule,
                         tol=_fraction(tol, "tolerance"), m_max=m_max,
                         method=method)
    if not result.converged:
        raise TruncationIncompleteError(
            "no convergence within %d steps (last distance %s); raise "
            "--m-max or loosen --tol" % (
                result.steps,
                _fr(result.distances[-1]) if result.distances else "n/a"))
    payload = {
        "family": diagram.family,
        "level": result.level,
        "converged": result.converged,
        "steps": result.steps,
        "vector": {_vkey(v): _fr(x) for v, x in result.vector.items()},
        "mass_sum": _fr(result.mass_sums[-1]) if result.mass_sums else "0",
        "last_distances": [_fr(x) for x in result.distances[-3:]],
        "note": result.note,
    }
    return payload, ["vertex", "mass"], _vertex_rows(result.vector), ("vector",)


@_command(
    _opt("--level", type=int, required=True, help="Level to report."),
    _opt("--window", type=int, help="Support cut for infinite levels."),
    _opt("--vertex", "vertex_text", help="Single vertex instead of the level's support."),
    inputs="measure")
def measure(mu, level, window, vertex_text):
    """Cylinder and tower masses of a tail-invariant measure at a level."""
    window = _at_least_one(window, "--window")
    if vertex_text is not None:
        vertices = (vertex_from_text(vertex_text),)
    else:
        vertices = mu.level_support(level, window)
    cylinders = {v: mu.p(level, v) for v in vertices}
    towers = {v: mu.q(level, v) for v in vertices}
    payload = {
        "measure": mu.name,
        "level": level,
        "cylinder_masses": {_vkey(v): _fr(x) for v, x in cylinders.items()},
        "tower_masses": {_vkey(v): _fr(x) for v, x in towers.items()},
        "level_mass": _fr(mu.level_mass(level)),
    }
    return (payload, ["vertex", "cylinder_mass", "tower_mass"],
            lambda: [[_vkey(v), _fr(cylinders[v]), _fr(towers[v])]
                     for v in sorted(vertices, key=repr)],
            ("cylinder_masses", "tower_masses"))


@_command(
    _opt("--levels", type=int, required=True, help="Number of levels checked, starting at the base."),
    _opt("--window", type=int, help="Support cut for infinite levels."),
    inputs="measure")
def invariance(mu, levels, window):
    """Exact balance check: cylinder mass equals its successor mass."""
    base = mu.diagram.base_level
    levels, window = _at_least_one(levels, "--levels"), _at_least_one(window, "--window")
    records = invariance_report(mu, range(base, base + levels), bound=window)
    payload = {
        "measure": mu.name,
        "levels": [base, base + levels - 1],
        "checks": len(records),
        "invariant": all(r.ok for r in records),
        "failures": [
            {
                "level": r.level,
                "vertex": _vkey(r.vertex),
                "cylinder_mass": _fr(r.cylinder_mass),
                "successor_mass": _fr(r.successor_mass),
            }
            for r in records if not r.ok
        ],
    }
    return payload, ["level", "vertex", "cylinder_mass", "successor_mass", "ok"], lambda: [
        [r.level, _vkey(r.vertex), _fr(r.cylinder_mass), _fr(r.successor_mass), r.ok]
        for r in records
    ]


@_command(
    _opt("--levels", type=int, required=True, help="Number of levels summed, starting at the base."),
    inputs="measure")
def probability(mu, levels):
    """Total tower mass per level; a probability measure reports exactly 1."""
    base = mu.diagram.base_level
    levels = _at_least_one(levels, "--levels")
    masses = {n: mu.level_mass(n) for n in range(base, base + levels)}
    payload = {
        "measure": mu.name,
        "level_masses": {str(n): _fr(x) for n, x in masses.items()},
        "all_one": all(x == 1 for x in masses.values()),
        "method": mu.level_mass_method,
    }
    return (payload, ["level", "mass"],
            lambda: [[n, _fr(x)] for n, x in sorted(masses.items())],
            ("level_masses",))


_slope = functools.partial(_fraction, what="slope")

# case -> (the option holding its parameter, that parameter's keyword and
# reader, the keyword taking --k or --column, the keyword taking --n-max)
_EXTENSION_ARGS = {
    "mu-a-pascal-edge": ("--a", "a", _slope, "k", "n_check"),
    "nu-a-staircase": ("--a", "a", _slope, "k", "n_max"),
    "nu-p-pascal-edge": ("--p", "prob", functools.partial(_fraction, what="edge weight"), "k", "n_max"),
    "odometer-column": ("--a", "a", str, "column", "n_max"),
}


@_command(
    _opt("--case", "case_name", choices=sorted(EXTENSION_CASES), required=True,
         help="Which extension boundary to test."),
    _opt("--a", "a_text", help="Slope (rational) or odometer entry rule."),
    _opt("--p", "p_text", help="Edge weight for nu-p-pascal-edge."),
    _opt("--k", "k_param", type=int, default=2, help="Subdiagram width (default 2)."),
    _opt("--column", type=int, default=1, help="Column for odometer-column (default 1)."),
    _opt("--n-max", "n_max", type=int, help="Series depth before declaring a partial-sum verdict."))
def extension(case_name, a_text, p_text, k_param, column, n_max):
    """Decide whether a subdiagram measure extends to a finite measure."""
    option, name, read, width, depth = _EXTENSION_ARGS[case_name]
    text = p_text if option == "--p" else a_text
    if text is None:
        raise DiagramError("%s needs %s" % (case_name, option))
    kwargs = {name: read(text), width: column if width == "column" else k_param}
    if n_max is not None:
        kwargs[depth] = _at_least_one(n_max, "--n-max")
    payload = dict(run_extension_case(case_name, **kwargs).to_json())
    payload["case"] = case_name
    return payload


@_command(
    _opt("--orders", type=int, default=5, help="Highest finite-difference order checked."),
    _opt("--terms", type=int, default=12, help="Length of the determining sequence."),
    inputs="staircase-nu")
def monotone(nu, orders, terms):
    """Complete monotonicity of the staircase determining sequence."""
    if orders < 0:
        raise DiagramError("--orders must be at least 0, got %d" % orders)
    terms = _at_least_one(terms, "--terms")
    if orders > terms - 1:
        raise DiagramError("--orders must be at most --terms - 1 = %d, got %d" % (terms - 1, orders))
    seq = [nu.determining_value(n) for n in range(1, terms + 1)]
    witness = completely_monotone_witness(seq, orders)
    table = difference_table(seq, orders)
    payload = {
        "measure": nu.name,
        "k": nu.k,
        "orders": orders,
        "sequence": {str(n): _fr(x) for n, x in enumerate(seq, start=1)},
        "differences": {
            str(order): [_fr(x) for x in row]
            for order, row in enumerate(table)
        },
        "completely_monotone": witness is None,
        "first_failure": None if witness is None else list(witness),
    }
    return (payload, ["n", "value"],
            lambda: [[n, _fr(x)] for n, x in enumerate(seq, start=1)],
            ("sequence",))


@_command(
    _opt("--depth", type=int, required=True, help="Path length."),
    _opt("--count", type=int, required=True, help="Number of paths."),
    _opt("--seed", type=int, required=True, help="Generator seed."),
    inputs="pascal-mu")
def sample(mu, depth, count, seed):
    """Sample random paths from a product measure; report coordinate means."""
    report = sample_paths(mu, depth, count, seed)
    payload = {
        "measure": mu.name,
        "depth": report.depth,
        "count": report.count,
        "seed": report.seed,
        "means": {str(c): _fr(x) for c, x in report.means.items()},
        "expected": {str(c): _fr(mu.d[c]) for c in report.coordinates},
        "stderrs": {str(c): x for c, x in report.stderrs.items()},
        "endpoint_counts": {_vkey(v): n for v, n in report.endpoint_counts.items()},
        "precision_bits": 53,
    }
    return payload, ["coordinate", "mean", "expected", "stderr"], lambda: [
        [c, _fr(report.means[c]), _fr(mu.d[c]), report.stderrs[c]]
        for c in report.coordinates
    ]


@_command(
    _ORDER_OPT,
    _opt("--path", "path_text", required=True, help="Path as JSON: {start, edges, tail}."),
    _opt("--inverse", action="store_true", help="Apply the inverse step instead."),
    inputs="diagram")
def vershik(source, order_name, path_text, inverse):
    """One step of the adic transformation on an explicit path."""
    od = OrderedDiagram(source(), order_name)
    path = path_from_json(read_json(path_text, "--path"))
    result = vershik_inverse(od, path) if inverse else vershik_step(od, path)
    return {
        "direction": "inverse" if inverse else "forward",
        "input": path_to_json(path),
        "output": path_to_json(result),
    }


@_command(
    _ORDER_OPT,
    _opt("--path", "path_text", help="Path as JSON: {start, edges, tail}."),
    _opt("--descriptor", "descriptor_text", help="Extremal-path descriptor as JSON."),
    _opt("--domain", choices=["z", "n"], default="z", help="Coordinate domain for descriptors."),
    inputs="diagram")
def classify(source, order_name, path_text, descriptor_text, domain):
    """Extremality class of a path or descriptor, with step candidates."""
    if (path_text is None) == (descriptor_text is None):
        raise DiagramError("pass exactly one of --path or --descriptor")
    if descriptor_text is not None:
        desc = descriptor_from_json(read_json(descriptor_text, "--descriptor"))
        cls = classify_descriptor(desc, domain)
        payload = {
            "kind": "descriptor",
            "domain": domain,
            "class": cls.value,
            "candidates": sorted(
                (descriptor_to_json(c)
                 for c in succ_pred_descriptor(desc, domain)),
                key=json.dumps),
        }
        if desc.side == "max":
            try:
                mirrored, clipped = mirror_descriptor(desc, domain)
                payload["mirror"] = descriptor_to_json(mirrored)
                payload["mirror_clipped"] = clipped
            except DiagramError as exc:
                payload["mirror_note"] = str(exc)
        return payload
    od = OrderedDiagram(source(), order_name)
    path = path_from_json(read_json(path_text, "--path"))
    cls = classify_extremal(od, path)
    payload = {
        "kind": "path",
        "class": cls.value,
        "path": path_to_json(path),
    }
    try:
        candidates = succ_pred(od, path)
    except DiagramError as exc:
        payload["candidates_note"] = str(exc)
    else:
        payload["candidates"] = sorted(
            (path_to_json(c) for c in candidates), key=json.dumps)
    return payload


@_command(
    _ORDER_OPT,
    _opt("--path", "path_text", required=True, help="Starting path as JSON."),
    _opt("--steps", type=int, required=True, help="Forward steps to take."),
    _opt("--visit-level", type=int, help="Count vertex visits at this level along the orbit."),
    name="orbit", inputs="diagram")
def orbit_cmd(source, order_name, path_text, steps, visit_level):
    """Iterate the adic transformation and tally vertex visits.

    \f
    ``orbit_end`` adds the steps to the path's index in its tower instead of taking them one by one."""
    od = OrderedDiagram(source(), order_name)
    path = path_from_json(read_json(path_text, "--path"))
    edges, tail, visits = orbit_end(od, path, steps, visit_level)
    payload = {
        "steps": steps,
        "first": path_to_json(path),
        "last": path_to_json(PathRep(path.start, tuple(edges), tail)),
        "paths_seen": steps + 1,
    }
    if visit_level is not None:
        payload["visit_level"] = visit_level
        payload["visits"] = {_vkey(v): n for v, n in visits.items()}
    return payload


@_command(
    _opt("--level", type=int, required=True, help="Target level (sources ranked one level down)."),
    _opt("--window", type=int, help="Index bound for infinite levels."),
    inputs="diagram")
def continuity(source, level, window):
    """Rank-weighted row norms tracking continuity of the transpose action."""
    window = _at_least_one(window, "--window")
    diagram = source()
    norms = continuity_profile(diagram, level, bound=window)
    payload = {
        "family": diagram.family,
        "level": level,
        "norms": {_vkey(v): _fr(x) for v, x in norms.items()},
        "max_norm": _fr(max(norms.values())) if norms else "0",
    }
    return payload, ["vertex", "norm"], _vertex_rows(norms), ("norms",)


@_command(
    _opt("--k", "k_param", type=int, required=True, help="Band half-width of the bounded diagram."),
    _opt("--m-max", "m_max", type=int, required=True, help="Largest power examined."),
    name="bk-decay")
def bk_decay(k_param, m_max):
    """Central-coefficient decay ratios K_0^(m) / (2k+1)^m for powers m."""
    if k_param < 1 or m_max < 1:
        raise DiagramError("--k and --m-max must be positive")
    width = 2 * k_param + 1
    ratios = {m: Fraction(step_polynomial_coefficients(k_param, m)[0], width ** m)
              for m in range(1, m_max + 1)}
    values = list(ratios.values())
    payload = {
        "k": k_param,
        "m_max": m_max,
        "ratios": {str(m): _fr(x) for m, x in ratios.items()},
        "nonincreasing": all(
            values[i] <= values[i - 1] for i in range(1, len(values))),
        "final": _fr(values[-1]),
    }
    return (payload, ["m", "ratio"],
            lambda: [[m, _fr(ratios[m])] for m in range(1, m_max + 1)],
            ("ratios",))


def _glued(argv):
    """``argv`` with each option that takes a value joined to the next token: ``--coords=-1,1``.

    argparse reads a token that starts with a dash as an option, so ``--coords -1,1`` would
    lose its value; joined, a value option takes the next token whatever it starts with.
    """
    out, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in _VALUE_FLAGS else None
        out.append(token if value is None else token + "=" + value)
    return out


def main(argv=None):
    """Console entry point: parse ``argv``, run its command, and exit 0, 1 or 2 (it never returns)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        _PARSER.print_help(sys.stderr)
        sys.exit(1)
    args = vars(_PARSER.parse_args(_glued(argv)))
    fn, resolve, fields = COMMANDS[args.pop("command")]
    out, fmt, precision = args.pop("out"), args.pop("fmt"), args.pop("precision")
    try:
        given = [resolve(*(args.pop(f) for f in fields))] if resolve else []
        result = fn(*given, **args)
        _emit(out, fmt, precision, *(result if isinstance(result, tuple) else (result,)))
    except TruncationIncompleteError as exc:
        missing = " (missing: %s)" % json.dumps(exc.missing) if exc.missing else ""
        print("truncation-incomplete: %s%s" % (exc, missing), file=sys.stderr)
        sys.exit(2)
    except DiagramError as exc:
        print("error: %s" % exc, file=sys.stderr)
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
