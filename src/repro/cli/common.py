"""What every command module shares: the usage error, what the scenario
flags mean, and the package's one JSON writer."""

from __future__ import annotations

import json

from ..experiments import build_ec2_env, build_simics_environment
from ..repair import SCHEMES

__all__ = [
    "UsageError",
    "env_builder",
    "headline",
    "parse_at_spec",
    "parse_code",
    "parse_fail",
    "parse_stripe",
    "scenario",
    "to_json",
]


class UsageError(Exception):
    """A flag value the verb cannot run with: ``main`` prints the one-line
    message on stderr and exits 2, before anything reaches stdout."""


def to_json(obj) -> str:
    """The one JSON style of the CLI — ``--json`` output and JSON files alike."""
    return json.dumps(obj, indent=2)


def parse_code(text: str) -> tuple[int, int]:
    try:
        n, k = (int(x) for x in text.split(","))
        return n, k
    except ValueError:
        raise UsageError(f"--code must look like '12,4', got {text!r}") from None


def parse_fail(text: str, n: int, k: int) -> list[int]:
    try:
        failed = sorted(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(
            f"--fail must be comma-separated block ids like '0,3', got {text!r}"
        ) from None
    if len(set(failed)) != len(failed) or len(failed) > k or not all(
        0 <= b < n + k for b in failed
    ):
        raise UsageError(
            f"--fail must name at most {k} distinct blocks of RS({n},{k})'s stripe "
            f"(0..{n + k - 1}), got {text!r}"
        )
    return failed


def parse_at_spec(spec: str, what: str) -> list[tuple[int, float]]:
    """Parse comma-separated ``node@value`` pairs (e.g. ``6@0.5,12@0.7``)."""
    pairs = []
    for item in spec.split(",") if spec else ():
        try:
            node, value = item.split("@")
            pairs.append((int(node), float(value)))
        except ValueError:
            raise UsageError(
                f"--{what} expects comma-separated node@value pairs, got {item!r}"
            ) from None
    return pairs


def env_builder(args):
    """``--testbed`` as the ``(n, k, ...) -> ExperimentEnv`` builder it names."""
    return build_ec2_env if args.testbed == "ec2" else build_simics_environment


def parse_stripe(args) -> None:
    """Validate ``--code`` / ``--fail`` and leave the parsed ``n`` / ``k`` /
    ``failed`` on ``args`` (``failed`` is ``None`` for a verb without ``--fail``)."""
    args.n, args.k = parse_code(args.code)
    args.failed = parse_fail(args.fail, args.n, args.k) if hasattr(args, "fail") else None


def scenario(args):
    """``(env, scheme, failed)`` from a verb's scenario flags, validated once.

    A flag the verb does not declare falls back: no ``--placement`` is
    the RPR placement, no ``--scheme`` / ``--fail`` yields ``None``.  A
    bad value is a :class:`UsageError` naming the flag.  The parsed
    ``n`` / ``k`` / ``failed`` are left on ``args`` for the text views.
    """
    parse_stripe(args)
    if getattr(args, "width", 10) < 10:
        raise UsageError(f"--width must be at least 10 columns, got {args.width}")
    env = env_builder(args)(args.n, args.k, placement=getattr(args, "placement", "rpr"))
    scheme = SCHEMES[args.scheme]() if hasattr(args, "scheme") else None
    return env, scheme, args.failed


def headline(args) -> str:
    """What a scenario verb's text report opens with (after :func:`scenario`)."""
    return (
        f"{args.scheme} repairing blocks {args.failed} of RS({args.n},{args.k}) "
        f"on the {args.testbed} testbed"
    )
