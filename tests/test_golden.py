"""Golden outputs: SHA-256 digests of what the CLI and the kernel print.

Each group pins one slice of the observable behaviour byte for byte, so a
rewrite of the resolution kernel that changes any output, exception text or
exit code fails the group that shows it:

* ``resolve-e<e>f<f>``: ``resolve --json`` and ``resolve --trace`` on the
  196 grid germs y^e z^f (y^a - z^b), a, b in 1..14;
* ``example-<family>``: ``example <family> --json`` at g = 2..41 (invalid
  genera included, they exit 2);
* ``kernel-cap3``: ``even_resolve`` and ``classify`` at cap 3 on all 784
  grid germs, with the ``DepthOverflow`` and ``RequiresAlgebraicExtension``
  texts.

To see a digest, run this file with ``-k <group>`` and read the assertion.
"""

from __future__ import annotations

import hashlib
import io
import sys

import pytest

from fibrato.cli import main
from fibrato.constructions import FAMILY_NAMES
from fibrato.germs import (
    DepthOverflow,
    RequiresAlgebraicExtension,
    classify,
    even_resolve,
    parse_germ,
)

DIGESTS = {
    "resolve-e0f0": "2e9bb525f33f7af77fc4fc5a64dd6c27d8f026a97e4ddaf8ff6fc23fe37df95f",
    "resolve-e0f1": "c0389ef00673b9fd901e1b6ec6fd48249dc32e18553722319d1543af86b484d8",
    "resolve-e1f0": "45e169b7663cab2351566daa9c1b1e4e4610511d5e7ee78323464f66adfe74b0",
    "resolve-e1f1": "694cfb66fd9fd9fd279ec1c4ff48951a25d75433607a91a92f858cb77bdc8317",
    "example-genus2": "c493549fa503a271aeb62ed23b903e659d639de62c147bd83b3decc9119d0362",
    "example-genus3": "49dd25360bef3ee3601148dbab943e84e0eaacfa0f3dc370601aa64ababf79e9",
    "example-odd_genus": "201779307e826f0aab8180d261a0472f274436725d88e7432a4c4b6a020082f5",
    "example-even_genus": "4600103de361cec01a88e45e29efb89e097e4792ec28e9a2dee5010111e3e50c",
    "example-mod4_0": "cabe55a2117bc4fdcbb125355aa18065009c8f1ab1bb373514198b6cd81bd122",
    "example-mod4_1": "2b8588cd72619e1952240edee5272140b1e4ef56d5844da8e61d501a232c0adc",
    "example-mod6_1": "5cc8dd5f09d4aa51b491fcdd6ad3ea2a9d3d3bea2ee03974fda3ced47c4565f5",
    "kernel-cap3": "a5e0e317f812b92aecc04c14113cd1bdae811473de201ab20009f8d9e5a1d707",
}


def _grid_text(e, f, a, b):
    return "*".join(["y"] * e + ["z"] * f + [f"(y^{a} - z^{b})"])


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stdout", out)
        mp.setattr(sys, "stderr", err)
        code = main(argv)
    return argv, code, out.getvalue(), err.getvalue()


def _outcome(fn, *args):
    try:
        got = fn(*args)
    except (DepthOverflow, RequiresAlgebraicExtension) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, str):
        return "label", got
    return "trace", got.multiplicities(), [pt.classification for pt in got.points]


def _records(group):
    kind, _, name = group.partition("-")
    if kind == "resolve":
        e, f = int(name[1]), int(name[3])
        return [_cli(["resolve", _grid_text(e, f, a, b), flag])
                for a in range(1, 15) for b in range(1, 15) for flag in ("--json", "--trace")]
    if kind == "example":
        return [_cli(["example", name, "--genus", str(g), "--json"]) for g in range(2, 42)]
    records = []
    for e in (0, 1):
        for f in (0, 1):
            for a in range(1, 15):
                for b in range(1, 15):
                    g = parse_germ(_grid_text(e, f, a, b))
                    records.append((str(g), _outcome(even_resolve, g, 3), _outcome(classify, g, 3)))
    return records


def test_groups_cover_every_family():
    assert {f"example-{name}" for name in FAMILY_NAMES} <= set(DIGESTS)


@pytest.mark.parametrize("group", list(DIGESTS))
def test_golden_output(group):
    digest = hashlib.sha256(repr(_records(group)).encode()).hexdigest()
    assert digest == DIGESTS[group], group
