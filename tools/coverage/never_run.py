#!/usr/bin/env python3
"""Lists the src/ functions a coverage run never executed; fails if they grew.

    cmake -B build-cov -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS="--coverage -O0" -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build-cov && ctest --test-dir build-cov
    python3 tools/coverage/never_run.py build-cov

Runs `gcov --json-format` (the gcov on PATH must match the compiler) on
every object's notes file (.gcno) under the build directory, so an object no
test ever loaded counts as never run too.
Keeps the functions whose source lies under src/. A function is one
definition, named by its file and first line: the copies compiled into
several objects (an inline header function) and the instantiations of one
template are merged, and the function ran if any of them ran. Prints each
never-run function and the totals, and exits 1 when more functions never ran
than RECORDED_NEVER_RUN. When a change makes the count fall, lower
RECORDED_NEVER_RUN to the new count in the same change.
"""

import json
import os
import subprocess
import sys

# Never-run src/ functions under ctest, GCC 12.2, Debug --coverage -O0.
RECORDED_NEVER_RUN = 16

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src") + os.sep
BATCH = 64  # notes files per gcov process


def gcov_documents(notes):
    """Yields gcov's JSON document for each notes file."""
    for i in range(0, len(notes), BATCH):
        proc = subprocess.run(["gcov", "--json-format", "--stdout", *notes[i:i + BATCH]],
                              capture_output=True, text=True, check=True)
        decoder = json.JSONDecoder()
        text = proc.stdout
        pos = 0
        while True:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos == len(text):
                break
            doc, pos = decoder.raw_decode(text, pos)
            yield doc


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: never_run.py <coverage build directory>")
    build_dir = sys.argv[1]
    notes = sorted(os.path.join(root, name)
                   for root, _, names in os.walk(build_dir)
                   for name in names if name.endswith(".gcno"))
    if not notes:
        sys.exit(f"no .gcno files under {build_dir}: not a --coverage build")

    # (source path, first line) -> [demangled name of the first copy seen, ran]
    functions = {}
    for doc in gcov_documents(notes):
        cwd = doc.get("current_working_directory", "")
        for source in doc["files"]:
            path = os.path.normpath(os.path.join(cwd, source["file"]))
            if not path.startswith(SRC):
                continue
            rel = os.path.relpath(path, REPO)
            for fn in source["functions"]:
                entry = functions.setdefault((rel, fn["start_line"]),
                                             [fn["demangled_name"], False])
                entry[1] = entry[1] or fn["execution_count"] > 0

    never = sorted((rel, line, name) for (rel, line), (name, ran) in functions.items()
                   if not ran)
    for rel, line, name in never:
        print(f"{rel}:{line}: {name}")
    print(f"never-run src/ functions: {len(never)} of {len(functions)} "
          f"(recorded: {RECORDED_NEVER_RUN})")
    if len(never) > RECORDED_NEVER_RUN:
        print(f"FAIL: {len(never) - RECORDED_NEVER_RUN} more than recorded; test the new "
              "functions or delete them")
        return 1
    if len(never) < RECORDED_NEVER_RUN:
        print(f"note: lower RECORDED_NEVER_RUN to {len(never)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
