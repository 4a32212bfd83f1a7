#!/usr/bin/env python3
"""Check that two builds of lumina_run write byte-identical artifacts.

    tools/artifact_diff.py PARENT_BUILD CHANGE_BUILD

Each argument is a CMake build directory holding tools/lumina_run. The
same commands run from both builds, on the configs in this checkout's
examples/configs:

  - the four single runs (double_drop, fault_vocabulary, incast_4host,
    pause_storm_incast), each with a results directory and --report;
  - --campaign campaign_small and campaign_incast, at --jobs 2 --seed 42;
  - --screen cx4, cx5, cx6 and e810;
  - --fuzz-campaign fuzz_small at --seed 7.

Every command that writes a directory gets --out (or a results directory)
and --report. The two sides run one after the other into the same output
path, so a path written into an artifact reads the same on both. The tool
then compares the exit code of every command and every file. Each
report.json is compared without its top-level "wall" object, which holds
wall-clock data; everything else must match byte for byte. Stdout is not
compared (it prints wall times); each side's is kept in a log.

Exit status: 0 when everything matches, 1 when something differs (the
differing commands and paths are listed and the outputs are kept), 2 on a
usage error.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "examples" / "configs"
SINGLE_RUNS = ["double_drop", "fault_vocabulary", "incast_4host",
               "pause_storm_incast"]
CAMPAIGNS = ["campaign_small", "campaign_incast"]
SCREENS = ["cx4", "cx5", "cx6", "e810"]
COMMAND_TIMEOUT_S = 900


def commands(out):
    """(name, lumina_run arguments) of every command, writing under out."""
    for name in SINGLE_RUNS:
        d = out / "single" / name
        yield f"single/{name}", [
            str(CONFIGS / f"{name}.yaml"), str(d / "results"),
            "--report", str(d / "report.json")]
    for name in CAMPAIGNS:
        d = out / "campaign" / name
        yield f"campaign/{name}", [
            "--campaign", str(CONFIGS / f"{name}.yaml"),
            "--jobs", "2", "--seed", "42", "--out", str(d / "out"),
            "--report", str(d / "report.json")]
    for nic in SCREENS:
        d = out / "screen" / nic
        yield f"screen/{nic}", [
            "--screen", nic, "--report", str(d / "report.json")]
    d = out / "fuzz" / "fuzz_small"
    yield "fuzz/fuzz_small", [
        "--fuzz-campaign", str(CONFIGS / "fuzz_small.yaml"),
        "--seed", "7", "--out", str(d / "out"),
        "--report", str(d / "report.json")]


def run_side(build, out, log_path):
    """Runs every command from one build; returns {command: exit code}."""
    lumina_run = build / "tools" / "lumina_run"
    codes = {}
    with open(log_path, "w") as log:
        for name, args in commands(out):
            (out / name).mkdir(parents=True, exist_ok=True)
            log.write(f"=== {name}: lumina_run {' '.join(args)}\n")
            log.flush()
            try:
                proc = subprocess.run([str(lumina_run), *args], cwd=REPO,
                                      stdout=log, stderr=subprocess.STDOUT,
                                      timeout=COMMAND_TIMEOUT_S)
                codes[name] = proc.returncode
            except subprocess.TimeoutExpired:
                codes[name] = "timeout"
    return codes


def strip_wall(text):
    """report.json text without its top-level "wall" member.

    Returns the text unchanged when it is not a JSON object or has no
    "wall" member.
    """
    decoder = json.JSONDecoder()

    def skip(i):
        while i < len(text) and text[i] in " \t\r\n":
            i += 1
        return i

    try:
        i = skip(0)
        if text[i:i + 1] != "{":
            return text
        i = skip(i + 1)
        prev_end = None  # end of the previous member's value
        while text[i:i + 1] not in ("}", ""):
            key_start = i
            key, i = decoder.raw_decode(text, i)
            i = skip(i)
            if text[i:i + 1] != ":":
                return text
            _, end = decoder.raw_decode(text, skip(i + 1))
            if key == "wall":
                if prev_end is not None:  # drop ",<ws>"wall": {...}"
                    return text[:prev_end] + text[end:]
                j = skip(end)
                if text[j:j + 1] == ",":
                    j = skip(j + 1)
                return text[:key_start] + text[j:]
            prev_end = end
            i = skip(end)
            if text[i:i + 1] == ",":
                i = skip(i + 1)
    except ValueError:
        pass
    return text


def file_bytes(path):
    data = path.read_bytes()
    if path.name == "report.json":
        return strip_wall(data.decode("utf-8", "replace")).encode()
    return data


def tree(root):
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file()}


def main(argv):
    if len(argv) != 3 or argv[1].startswith("-"):
        print("usage: tools/artifact_diff.py PARENT_BUILD CHANGE_BUILD",
              file=sys.stderr)
        return 2
    builds = [Path(argv[1]).resolve(), Path(argv[2]).resolve()]
    for build in builds:
        if not (build / "tools" / "lumina_run").is_file():
            print(f"error: {build}/tools/lumina_run not found",
                  file=sys.stderr)
            return 2

    work = Path(tempfile.mkdtemp(prefix="artifact_diff."))
    out = work / "out"
    sides = []
    for side, build in zip(("parent", "change"), builds):
        print(f"running {side}: {build}", flush=True)
        codes = run_side(build, out, work / f"{side}.log")
        out.rename(work / side)
        sides.append(codes)

    differ = []
    for name, parent_code in sides[0].items():
        change_code = sides[1][name]
        if parent_code != change_code:
            differ.append(f"exit code of {name}: parent {parent_code}, "
                          f"change {change_code}")
    parent_root, change_root = work / "parent", work / "change"
    parent_files, change_files = tree(parent_root), tree(change_root)
    for rel in sorted(parent_files - change_files):
        differ.append(f"only in parent: {rel}")
    for rel in sorted(change_files - parent_files):
        differ.append(f"only in change: {rel}")
    common = sorted(parent_files & change_files)
    for rel in common:
        if file_bytes(parent_root / rel) != file_bytes(change_root / rel):
            differ.append(f"differs: {rel}")

    print(f"{len(sides[0])} commands, {len(common)} files compared, "
          f"{len(differ)} differences")
    if differ:
        for line in differ:
            print(f"  {line}")
        print(f"outputs kept in {work}")
        return 1
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
