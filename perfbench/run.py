#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload batch-sync --seed 1 --seconds 10 --trace 0

Run from the repository root. The Go program in perfbench/ is built from
source into .bench_build/ (with its build cache there too), then run with
the same arguments; its last output line is the JSON result. Everything
the build and the run write stays under .bench_build/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def source_revision(root):
    """The git commit when there is one, else a digest of the Go sources."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in (".git", ".bench_build"))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    for need in (os.path.join(root, "go.mod"), os.path.join(bench, "go.mod")):
        if not os.path.isfile(need):
            fail("%s not found: run from the repository root" % need)
    go = shutil.which("go")
    if go is None:
        fail("the go toolchain is not on PATH")

    build = os.path.join(root, ".bench_build")
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    for d in (home, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.pop("GOMAXPROCS", None)  # one P per CPU
    env.pop("GOFLAGS", None)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })

    binary = os.path.join(build, "perfbench-bin")
    try:
        b = subprocess.run([go, "build", "-o", binary, "."], cwd=bench, env=env,
                           capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if b.returncode != 0:
        sys.stderr.write(b.stderr)
        fail("build failed")

    # An empty plan-store directory: no warm store can make set-up cheap.
    store = tempfile.mkdtemp(prefix="store-", dir=build)
    env["IATF_STORE_DIR"] = store
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", source_revision(root),
           "--report-dir", os.path.join(build, "reports")]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("run timed out")
    finally:
        shutil.rmtree(store, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
