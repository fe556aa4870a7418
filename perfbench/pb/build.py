"""Building pipegen and the tracer from the checkout's sources."""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A workspace of one context named "perfbench": the tracer is enabled
# only there, so the repository's own `dune build` never compiles it.
WORKSPACE = os.path.join(os.path.dirname(HERE), "build.workspace")
CONTEXT = "perfbench"
PIPEGEN = "bin/pipegen.exe"
PTRACE = "perfbench/trace/ptrace.exe"


def build(root, targets=(PIPEGEN, PTRACE)):
    """dune build of the targets under root, in the perfbench context
    (same profile and flags as a plain `dune build`); returns their
    paths.  The shared dune cache stays off so the build reads and
    writes only inside the checkout.  Raises when the build fails
    (e.g. outside a checkout of the repository)."""
    if not os.path.exists(os.path.join(root, "dune-project")):
        raise FileNotFoundError("no dune-project at %s" % root)
    env = dict(os.environ, DUNE_CACHE="disabled")
    paths = [os.path.join("_build", CONTEXT, t) for t in targets]
    subprocess.run(["dune", "build", "--root", root, "--workspace",
                    WORKSPACE, "--display", "quiet"] + paths, check=True,
                   env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    return [os.path.join(root, p) for p in paths]
