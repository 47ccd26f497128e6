"""Command-line front end.

One executable, twelve verbs, JSON in and JSON out:

    lbcalc bch --order 10 x.json y.json
    lbcalc dirichlet-bracket a.json b.json
    lbcalc dirichlet-norm --s 2 a.json
    lbcalc dirichlet-eval --z 2+1j a.json
    lbcalc germ-compose outer.json inner.json
    lbcalc germ-invert g.json
    lbcalc estimate-verify --r 0.05 family.json
    lbcalc limit-certify --r 0.05 --R 1 --epsilon 0.01 sups.json
    lbcalc limit-verify --map matrix2-square --samples 1000
    lbcalc modulus-dirichlet --s 1 --epsilon 0.1 --u 10 [gamma.json]
    lbcalc modulus-germ --n 1 --epsilon 0.5 --l 6 [germ.json]
    lbcalc suite --seed 0

Exit codes: 0 success or verdict true, 1 verdict false, 2 usage error,
3 domain error (the violated precondition is printed verbatim).  The bch
verb dispatches on its input schema: matrix JSON runs the matrix
combination, series JSON runs the Dirichlet series one.  Reports carry a
"guarantee" field naming the bound the output is certified against.
JSON inputs follow one number policy (`lbcalc.jsonio`): numbers are finite
JSON numbers, integers JSON ints, complex values [re, im] pairs; booleans,
strings (numeric ones too), NaN and Infinity exit 3, like any bad input.
Identical argv, seed and inputs produce byte-identical reports; --seed
falls back to the LBCALC_SEED environment variable, then 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import acceptance, catalog
from .dirichlet import (
    bch_series,
    bracket,
    evaluate,
    exp_pointwise,
    leading_coefficient,
    norm_s,
    series_from_json,
    series_to_json,
)
from .errors import ConfigurationError, DomainError, UsageError, ValidationError
from .estimates import DEFAULT_QUADRATURE, sample_from_polynomial, verify_bounded_series
from .germs import (
    DEFAULT_DEGREE,
    compose,
    d_norm,
    derivative_bound,
    germ_from_json,
    germ_to_json,
    invert,
    residual,
    sup_norm,
)
from .jsonio import fields, integer, items, number, numbers, pairs
from .limits import (
    DEFAULT_SAMPLES,
    build_certificate,
    certificate_from_json,
    check_dirichlet_regularity,
    check_germ_regularity,
    dirichlet_regularity_modulus,
    germ_regularity_modulus,
    neighborhood_contains,
    verify_certificate,
)
from .matrices import bch, compatible_norm, matrix_from_json, matrix_to_json
from .sampling import generator

@dataclass
class Command:
    verb: str
    options: dict = field(default_factory=dict)
    inputs: list = field(default_factory=list)
    seed: int = 0


class _Parser(argparse.ArgumentParser):
    # argparse wants to exit on its own; route everything to UsageError so
    # parse() has a single failure mode
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    top = _Parser(prog="lbcalc", add_help=True)
    sub = top.add_subparsers(dest="verb", parser_class=_Parser, required=True)

    def verb(name, *, paths=0):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, default=None)
        # fixed count where the verb demands it, free-form otherwise
        p.add_argument("inputs", nargs=paths if paths else "*", metavar="path")
        return p

    p = verb("bch", paths=2)
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--s", type=float, default=0.0)

    p = verb("dirichlet-bracket", paths=2)
    p.add_argument("--s", type=float, default=0.0)

    p = verb("dirichlet-norm", paths=1)
    p.add_argument("--s", type=float, required=True)

    p = verb("dirichlet-eval", paths=1)
    p.add_argument("--z", type=complex, required=True)
    p.add_argument("--re-probe", dest="re_probe", type=float, default=None)

    verb("germ-compose", paths=2)
    verb("germ-invert", paths=1)

    p = verb("estimate-verify", paths=1)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--degree", type=int, default=DEFAULT_DEGREE)
    p.add_argument("--quadrature", type=int, default=DEFAULT_QUADRATURE)
    p.add_argument("--probe", action="store_true")

    p = verb("limit-certify", paths=1)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--R", dest="big_r", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)

    p = verb("limit-verify")
    p.add_argument("--map", dest="map_name", required=True)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)

    p = verb("modulus-dirichlet")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--u", type=int, required=True)

    p = verb("modulus-germ")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--l", type=int, required=True)

    verb("suite")
    return top


def parse(argv) -> Command:
    """argv (without the program name) -> validated Command, or UsageError."""
    ns = _build_parser().parse_args(list(argv))
    options = {
        k: v
        for k, v in vars(ns).items()
        if k not in ("verb", "inputs", "seed") and v is not None
    }
    seed = ns.seed
    if seed is None:
        env = os.environ.get("LBCALC_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise UsageError(f"LBCALC_SEED must be an integer, got {env!r}")
        else:
            seed = 0
    if not -(2**63) <= seed < 2**63:
        raise UsageError(f"--seed must fit in 64 bits, got {seed}")
    return Command(
        verb=ns.verb,
        options=options,
        inputs=list(getattr(ns, "inputs", []) or []),
        seed=seed,
    )


def _refuse_constant(name: str):
    raise ValidationError(f"{name} is not a JSON number (RFC 8259, section 6)")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_refuse_constant)
    except FileNotFoundError:
        raise ValidationError(f"input file not found: {path}")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, nesting too deep
        raise ValidationError(f"{path} is not valid JSON: {exc}")


def _emit(report: dict) -> str:
    """The one writer of reports: strict JSON, whose numbers are all finite."""
    try:
        return json.dumps(report, sort_keys=True, separators=(", ", ": "), allow_nan=False)
    except ValueError:
        raise DomainError("a number of the report overflows the double range")


# -- verb handlers -----------------------------------------------------------


def _run_bch(cmd: Command):
    a, b = (_load_json(p) for p in cmd.inputs)
    order = cmd.options["order"]
    if isinstance(a, dict) and "terms" in a:
        g1, g2 = series_from_json(a), series_from_json(b)
        s = cmd.options["s"]
        out = bch_series(g1, g2, s, order)
        report = {
            "result": series_to_json(out),
            "inputs": {"norm_s": [norm_s(g1, s), norm_s(g2, s)], "s": s},
            "order": order,
            "guarantee": "norm_s sum below log(3/2) keeps the combination summable",
        }
    else:
        x, y = matrix_from_json(a), matrix_from_json(b)
        out = bch(x, y, order)
        report = {
            "result": matrix_to_json(out),
            "inputs": {"compatible_norm": [compatible_norm(x), compatible_norm(y)]},
            "order": order,
            "guarantee": "norm sum below log(3/2) keeps the series in the log(2) ball",
        }
    return report, 0


def _run_dirichlet_bracket(cmd: Command):
    g1, g2 = (series_from_json(_load_json(p)) for p in cmd.inputs)
    s = cmd.options["s"]
    out = bracket(g1, g2)
    return {
        "result": series_to_json(out),
        "norm_s": norm_s(out, s),
        "s": s,
        "guarantee": "norm_s of the bracket is at most the product of the factors'",
    }, 0


def _run_dirichlet_norm(cmd: Command):
    g = series_from_json(_load_json(cmd.inputs[0]))
    s = cmd.options["s"]
    return {
        "norm": norm_s(g, s),
        "s": s,
        "support": [int(n) for n in g.freqs],
        "guarantee": "sum of compatible norms weighted by n^(-s), exact summation",
    }, 0


def _run_dirichlet_eval(cmd: Command):
    g = series_from_json(_load_json(cmd.inputs[0]))
    z = cmd.options["z"]
    report = {
        "z": {"re": z.real, "im": z.imag},
        "value": matrix_to_json(evaluate(g, z)),
        "exp": matrix_to_json(exp_pointwise(g, z)),
        "guarantee": "finite support makes both evaluations exact sums",
    }
    probe = cmd.options.get("re_probe")
    if probe is not None:
        lead = leading_coefficient(g, probe)
        report["leading"] = {
            "value": matrix_to_json(lead.value),
            "tail_bound": lead.tail_bound,
        }
    return report, 0


def _run_germ_compose(cmd: Command):
    outer, inner = (germ_from_json(_load_json(p)) for p in cmd.inputs)
    out = compose(outer, inner)
    return {
        "result": germ_to_json(out),
        "sup_norm": sup_norm(out),
        "d_norm": d_norm(out),
        "derivative_bound_1": derivative_bound(out, 1),
        "guarantee": "containment gate verified before composing; majorants certified",
    }, 0


def _run_germ_invert(cmd: Command):
    g = germ_from_json(_load_json(cmd.inputs[0]))
    h = invert(g)
    defect = residual(g, h)
    worst = max(float(np.abs(c).max()) for c in defect.coeffs)
    return {
        "result": germ_to_json(h),
        "residual_max": worst,
        "sup_norm": sup_norm(h),
        "sup_ceiling": 1.0 / (6 * g.index),
        "guarantee": "residual sup_norm at the result index at most 1e-10 * sup_ceiling",
    }, 0


def _family_from_json(obj, degree: int, probe: bool):
    members = []
    family = items(fields(obj, "estimate input", ("family",))["family"], "family")
    for k, entry in enumerate(family):
        what = f"family member {k}"
        entry = fields(entry, what, ("terms", "radius"))
        terms = {}
        for t in items(entry["terms"], f"{what} terms"):
            t = fields(t, f"{what} term", ("alpha", "coeff"))
            alpha = items(t["alpha"], f"{what} alpha")
            alpha = tuple(integer(a, f"{what} alpha entry", 0) for a in alpha)
            terms[alpha] = pairs(t["coeff"], f"{what} coefficient")
        center = entry.get("center", [0.0] * len(next(iter(terms), ())))
        center = np.asarray(numbers(center, f"{what} center"), dtype=np.complex128)
        if center.size == 0:
            raise ValidationError(f"{what} needs a 'center' or at least one term")
        radius = number(entry["radius"], f"{what} radius")
        sample = sample_from_polynomial(terms, center, radius, degree=degree)
        if probe:
            sample = replace(sample, majorants=None)
        members.append(sample)
    return members


def _run_estimate_verify(cmd: Command):
    obj = _load_json(cmd.inputs[0])
    family = _family_from_json(obj, cmd.options["degree"], cmd.options.get("probe", False))
    report = verify_bounded_series(
        family,
        cmd.options["r"],
        s=cmd.options.get("s"),
        degree=cmd.options["degree"],
        quadrature=cmd.options["quadrature"],
        seed=cmd.seed,
    )
    out = report.to_json()
    out["guarantee"] = "degree sums at r stay within the overhead factor times the sup"
    if report.route != "majorants":
        out["guarantee"] += "; probed beta_k come from finitely many directions and can only undershoot"
    return out, 0 if report.verdict else 1


def _run_limit_certify(cmd: Command):
    obj = fields(_load_json(cmd.inputs[0]), "certificate input", ("step_sups",))
    sups = numbers(obj["step_sups"], "step sups")
    cert = build_certificate(sups, cmd.options["big_r"], cmd.options["r"], cmd.options["epsilon"])
    out = cert.to_json()
    out["guarantee"] = "radii sum below r and each delta_n stays below a_n"
    return out, 0


def _run_limit_verify(cmd: Command):
    case = catalog.get_map(cmd.options["map_name"])
    f, out_norm, scale, cert = case.bundle()
    if cmd.inputs:
        cert = certificate_from_json(_load_json(cmd.inputs[0]))
    report = verify_certificate(
        f, out_norm, cert, scale, samples=cmd.options["samples"], seed=cmd.seed
    )
    # one explicit decomposition at half radii, as a membership spot check
    rng = generator(cmd.seed)
    spot = [
        (j, scale.random(j, rng, 0.5 * cert.delta[j - 1]))
        for j in range(1, len(cert) + 1)
    ]
    report["spot_membership"] = neighborhood_contains(cert.delta, spot, scale)
    report["map"] = case.name
    report["certificate"] = cert.to_json()
    report["guarantee"] = "sampled decompositions stay inside the stated neighborhood"
    return report, 0 if report["verdict"] else 1


def _run_modulus_dirichlet(cmd: Command):
    mod = dirichlet_regularity_modulus(
        cmd.options["s"], cmd.options["epsilon"], cmd.options["u"]
    )
    out = mod.to_json()
    out["guarantee"] = "head below n0^(u-t) norm_u, tail below twice the zeta tail"
    code = 0
    if cmd.inputs:
        gamma = series_from_json(_load_json(cmd.inputs[0]))
        out["check"] = check_dirichlet_regularity(mod, gamma)
        code = 0 if out["check"]["verdict"] else 1
    return out, code


def _run_modulus_germ(cmd: Command):
    mod = germ_regularity_modulus(
        cmd.options["n"], cmd.options["epsilon"], cmd.options["l"]
    )
    out = mod.to_json()
    out["guarantee"] = "head controlled at the fine index, tail by the degree budget"
    code = 0
    if cmd.inputs:
        g = germ_from_json(_load_json(cmd.inputs[0]))
        out["check"] = check_germ_regularity(mod, g)
        code = 0 if out["check"]["verdict"] else 1
    return out, code


def _run_suite(cmd: Command):
    results = acceptance.run_all(seed=cmd.seed)
    report = {
        "criteria": [r.to_json() for r in results],
        "lines": [r.line() for r in results],
        "passed": all(r.passed for r in results),
        "seed": cmd.seed,
    }
    return report, 0 if report["passed"] else 1


_HANDLERS = {
    "bch": _run_bch,
    "dirichlet-bracket": _run_dirichlet_bracket,
    "dirichlet-norm": _run_dirichlet_norm,
    "dirichlet-eval": _run_dirichlet_eval,
    "germ-compose": _run_germ_compose,
    "germ-invert": _run_germ_invert,
    "estimate-verify": _run_estimate_verify,
    "limit-certify": _run_limit_certify,
    "limit-verify": _run_limit_verify,
    "modulus-dirichlet": _run_modulus_dirichlet,
    "modulus-germ": _run_modulus_germ,
    "suite": _run_suite,
}


def execute(cmd: Command, out=None) -> int:
    """Run a parsed Command, print one JSON report, and return the exit code.

    The handlers run with numpy's overflow and invalid-value warnings off:
    an overflow leaves an infinity or a NaN, which the verbs' finite checks,
    or else `_emit`, turn into exit 3.  A report that cannot be written
    because the reader closed the output also exits 3, one line on stderr.
    """
    out = out if out is not None else sys.stdout
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            report, code = _HANDLERS[cmd.verb](cmd)
        text = _emit(report)
    except (DomainError, ValidationError, ConfigurationError) as exc:
        text, code = _emit({"error": str(exc), "verb": cmd.verb}), 3
    try:
        print(text, file=out)
        out.flush()
    except BrokenPipeError:
        if out is sys.stdout:
            # the recipe of Python's signal docs: stdout goes to devnull, so
            # the flush at interpreter exit does not fail a second time
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        print("lbcalc: the output was closed before the report was written", file=sys.stderr)
        return 3
    return code


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        cmd = parse(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return execute(cmd)


def console() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
