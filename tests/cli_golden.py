"""Help, usage and error text of the command line, pinned per Python version.

Each case runs ``cli_dispatch`` in-process with ``COLUMNS=80`` and digests
its exit code, stdout and stderr.  argparse words and wraps its text a little
differently from one Python version to the next, so the digests are keyed
by ``major.minor``.  Run this file to print the digests of the running
interpreter:

    PYTHONPATH=src python tests/cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from unittest import mock

from digitop.cli import cli_dispatch

GROUPS = {
    "image": ("info", "build"),
    "map": ("check", "apply"),
    "maps": ("count", "enumerate"),
    "homotopy": ("class", "are-homotopic", "rigid", "contractible"),
    "spectrum": ("cs", "cfs", "f"),
    "hspectrum": ("hcs", "hfs", "mc", "mcf", "mj"),
}

# (DIGITOP_BUDGET_NODES or None, argv)
CASES = [
    (None, ("-h",)),
    *((None, (group, "-h")) for group in GROUPS),
    *((None, (group, command, "-h")) for group, names in GROUPS.items() for command in names),
    (None, ("verify", "-h")),
    (None, ("conjecture", "-h")),
    (None, ()),
    *((None, (group,)) for group in GROUPS),
    (None, ("verify",)),
    (None, ("frobnicate",)),
    (None, ("image", "nonesuch")),
    (None, ("image", "count")),
    (None, ("verify", "nonesuch")),
    ("abc", ("frobnicate",)),
    ("abc", ("-h",)),
    ("abc", ("image", "info", "-h")),
    # options before or between the subcommands, and a bare "--"
    (None, ("--format", "json", "image", "info", "builtin:cube")),
    (None, ("--foo", "image")),
    (None, ("--foo", "image", "info", "builtin:cube")),
    (None, ("image", "--format", "json", "info", "builtin:cube")),
    (None, ("-1", "image")),
    (None, ("--", "image", "info", "builtin:cube")),
    # malformed arguments of a named command
    (None, ("image", "info")),
    (None, ("image", "info", "builtin:cube", "--format", "xml")),
    (None, ("maps", "count", "builtin:cube", "builtin:cube", "--budget-nodes", "x")),
    (None, ("verify", "random-small", "--seed", "x")),
    # whole commands
    (None, ("image", "info", "builtin:cube")),
    (None, ("spectrum", "f", "builtin:cycle:6", "--format", "json")),
    (None, ("maps", "count", "builtin:cube", "builtin:interval:0:2", "--budget-nodes", "5")),
    ("3", ("maps", "enumerate", "builtin:cycle:4", "builtin:cycle:4")),
]

# case label -> the first 16 hex digits of the sha256 of (exit code, stdout,
# stderr), recorded while the parser still built every command; Python
# 3.10.13, 3.11.7 and 3.12.1 agree on every case
_RECORDED = {
    "-h": "fdc17b59e2405d48",
    "image -h": "1f03c592337bf6de",
    "map -h": "a6ff658bb1213ad4",
    "maps -h": "9b6515204ba83cbe",
    "homotopy -h": "7a79a9a396bb0f07",
    "spectrum -h": "ee98c6381c0f6c2e",
    "hspectrum -h": "52fd7d3add703906",
    "image info -h": "b65cf277626a64c2",
    "image build -h": "107bac324bf91602",
    "map check -h": "b6736b6193b3735b",
    "map apply -h": "9d6c5d88919a1189",
    "maps count -h": "4202fecd3489152e",
    "maps enumerate -h": "b6daad522c54b10b",
    "homotopy class -h": "d26c6859a4d8e42f",
    "homotopy are-homotopic -h": "f434c248bd0b0dea",
    "homotopy rigid -h": "fc75e40d86f98779",
    "homotopy contractible -h": "13d5c6fd08c9fcc7",
    "spectrum cs -h": "013da4fd3c5dddfe",
    "spectrum cfs -h": "bafde9d9190b3f3a",
    "spectrum f -h": "351b3ec862a0b5dd",
    "hspectrum hcs -h": "4de14a581bcf957b",
    "hspectrum hfs -h": "1f50fb73e8c63f93",
    "hspectrum mc -h": "fde5b1f239b61b41",
    "hspectrum mcf -h": "0479bcdcfb225c37",
    "hspectrum mj -h": "fbee151944e7db1a",
    "verify -h": "d737c2fdefb3f600",
    "conjecture -h": "d2d9eeca00b50b99",
    "(no arguments)": "a6b033f155062250",
    "image": "3a789d03f87c3b05",
    "map": "64f5a748d36a5e51",
    "maps": "0dbe135602d639cc",
    "homotopy": "dfbfd5aa3e805e23",
    "spectrum": "a1dd55e7db56dd90",
    "hspectrum": "16797709171327c7",
    "verify": "f297297df6278e6f",
    "frobnicate": "61ab052d7a9addea",
    "image nonesuch": "5ba85c48ea517666",
    "image count": "4e655a34cebe82d9",
    "verify nonesuch": "d47718c63f5c072b",
    "frobnicate [DIGITOP_BUDGET_NODES=abc]": "4cf4f6ce92be3971",
    "-h [DIGITOP_BUDGET_NODES=abc]": "4cf4f6ce92be3971",
    "image info -h [DIGITOP_BUDGET_NODES=abc]": "4cf4f6ce92be3971",
    "--format json image info builtin:cube": "7d15993913dad275",
    "--foo image": "3a789d03f87c3b05",
    "--foo image info builtin:cube": "1b1dd0d773426266",
    "image --format json info builtin:cube": "a9f7c3ecb485a495",
    "-1 image": "d95a9adbd6fb768a",
    "-- image info builtin:cube": "f7dcb8346a4995a4",
    "image info": "f74c0dfd3468b61d",
    "image info builtin:cube --format xml": "8f14f47fe4d2834a",
    "maps count builtin:cube builtin:cube --budget-nodes x": "4c935fb3c4914b82",
    "verify random-small --seed x": "3a064c0563d1268a",
    "image info builtin:cube": "2a39d34a9c6b3dee",
    "spectrum f builtin:cycle:6 --format json": "5b85f4dc00beafa4",
    "maps count builtin:cube builtin:interval:0:2 --budget-nodes 5": "6d42a6342a007745",
    "maps enumerate builtin:cycle:4 builtin:cycle:4 [DIGITOP_BUDGET_NODES=3]": "bc4d68b35744d7b7",
}
DIGESTS = {version: _RECORDED for version in ("3.10", "3.11", "3.12")}


def label(env, argv) -> str:
    text = " ".join(argv) or "(no arguments)"
    return text + (f" [DIGITOP_BUDGET_NODES={env}]" if env else "")


def run_case(env, argv) -> str:
    """The digest of one case's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"):
        os.environ.pop("DIGITOP_BUDGET_NODES", None)
        if env is not None:
            os.environ["DIGITOP_BUDGET_NODES"] = env
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_dispatch(list(argv))
    text = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def version() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


if __name__ == "__main__":
    digests = {label(env, argv): run_case(env, argv) for env, argv in CASES}
    print(json.dumps({version(): digests}, indent=4))
