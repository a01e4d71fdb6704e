#!/usr/bin/env python3
"""Per-file src/ line coverage of a coverage-preset build, and a gate
against modules that no program reaches.

    python3 tools/coverage_census.py [build_dir]   # default: build-coverage

Run it after the programs built by `cmake --preset coverage` have exited
(gcov data is written at exit). For every src/**/*.cpp it prints the
lines gcov saw executed, or "no .gcda" when no program that ran linked
the file. It exits 1 when a file without a .gcda is missing from the
"Kept without a production caller" list in DESIGN.md, or when that list
names a file that does not exist.
"""
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KEPT_HEADING = "Kept without a production caller"


def kept_list():
    """src/*.cpp paths named in DESIGN.md's kept-without-caller section."""
    kept, inside = set(), False
    with open(os.path.join(ROOT, "DESIGN.md")) as f:
        for line in f:
            if line.startswith("#"):
                inside = KEPT_HEADING in line
            elif inside:
                kept.update(re.findall(r"`(src/[^`]+\.cpp)`", line))
    return kept


def object_dirs(build_dir):
    """src/<dir>/<file>.cpp -> the directory holding its .gcno/.gcda."""
    out = {}
    src_build = os.path.join(build_dir, "src")
    for dirpath, _, filenames in os.walk(src_build):
        for name in filenames:
            if not name.endswith(".cpp.gcno"):
                continue
            # <build>/src/<sub>/CMakeFiles/<target>.dir/<rel>.cpp.gcno
            rel = os.path.relpath(os.path.join(dirpath, name), src_build)
            parts = rel.split(os.sep)
            if len(parts) < 4 or parts[1] != "CMakeFiles":
                continue
            source = "/".join(["src", parts[0]] + parts[3:])[: -len(".gcno")]
            out[source] = dirpath
    return out


def line_coverage(source, obj_dir):
    """(executed, total) lines of `source` as gcov reports them."""
    gcda = os.path.join(obj_dir, os.path.basename(source) + ".gcda")
    run = subprocess.run(["gcov", "-n", "-o", obj_dir, gcda], cwd=ROOT,
                         capture_output=True, text=True)
    current = None
    for line in run.stdout.splitlines():
        m = re.match(r"File '(.+)'", line)
        if m:
            current = os.path.normpath(os.path.join(ROOT, m.group(1)))
            continue
        m = re.match(r"Lines executed:([\d.]+)% of (\d+)", line)
        if m and current == os.path.join(ROOT, source):
            total = int(m.group(2))
            return round(float(m.group(1)) * total / 100.0), total
    return 0, 0


def main():
    build_dir = os.path.abspath(sys.argv[1] if len(sys.argv) > 1
                                else os.path.join(ROOT, "build-coverage"))
    sources = sorted(
        os.path.relpath(os.path.join(d, n), ROOT).replace(os.sep, "/")
        for d, _, names in os.walk(os.path.join(ROOT, "src"))
        for n in names if n.endswith(".cpp"))
    objs = object_dirs(build_dir)
    kept = kept_list()
    unreached, executed_all, total_all = [], 0, 0
    for source in sources:
        obj_dir = objs.get(source)
        gcda = obj_dir and os.path.isfile(
            os.path.join(obj_dir, os.path.basename(source) + ".gcda"))
        if not gcda:
            note = "kept" if source in kept else "UNREACHED"
            print(f"{'no .gcda':>16}  {source}  ({note})")
            if source not in kept:
                unreached.append(source)
            continue
        executed, total = line_coverage(source, obj_dir)
        executed_all += executed
        total_all += total
        pct = 100.0 * executed / total if total else 0.0
        print(f"{pct:6.1f}% {executed:4d}/{total:<4d}  {source}")
    if total_all:
        print(f"src/ lines executed in reached files: "
              f"{100.0 * executed_all / total_all:.1f}% of {total_all}")
    missing = sorted(k for k in kept if not os.path.isfile(
        os.path.join(ROOT, k)))
    for path in missing:
        print(f"DESIGN.md keeps {path}, which does not exist")
    for path in unreached:
        print(f"{path}: no program linked it; delete it or add it to "
              f"DESIGN.md's '{KEPT_HEADING}' list with a reason")
    return 1 if unreached or missing else 0


if __name__ == "__main__":
    sys.exit(main())
