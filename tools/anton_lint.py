#!/usr/bin/env python3
"""anton-lint: project-specific static checks for the anton2sim tree.

The hot-path guarantees established by the zero-allocation threaded
short-range pipeline (PR 1) are properties of *discipline*, not of the type
system: a single stray push_back inside a pair kernel, or a std::unordered_map
iteration feeding an order-sensitive sum, silently breaks the zero-allocation
and bit-determinism contracts the Anton model depends on.  This tool turns
those contracts into machine-checked rules.

Rules
-----
  hot-alloc        No heap-allocating calls (`new`, push_back, emplace_back,
                   resize, reserve, assign, insert, make_unique, make_shared,
                   std::function construction) inside a hot-annotated
                   function.  The preferred annotation is the marker macro
                   `ANTON_HOT_NOALLOC();` (common/error.h) as the first
                   statement of the body — the same marker feeds the
                   interprocedural verifier tools/anton_callgraph.py.  The
                   legacy comment form `// ANTON_HOT_NOALLOC` alone on the
                   line above the signature is still honoured.
  unordered-iter   No range-for iteration over std::unordered_map /
                   std::unordered_set variables: their order is
                   implementation-defined, so any accumulation they feed is
                   non-deterministic across standard libraries and runs.
  fixed-literal    In files that include common/fixed_point.h, a floating
                   literal may not appear on a line that touches Fixed /
                   FixedVec3 / ForceFixed unless it goes through an explicit
                   conversion (from_double / to_double / resolution /
                   max_magnitude / accumulate).  Raw literal <-> fixed mixing
                   is how scale bugs enter.
  iostream-lib     Library code under src/ must not include <iostream>
                   (stream globals add static-init order hazards and drag
                   ~100KB into every binary; use ostringstream via error.h
                   or return data).
  raw-clock        No std::chrono::steady_clock::now() (or
                   high_resolution_clock) outside src/obs/.  All wall-clock
                   reads go through obs::wall_seconds() so the telemetry
                   layer owns the single timing source: phase attribution,
                   the disabled-path zero-cost guarantee, and deterministic
                   replay all assume no code times itself on the side.
  raw-intrinsics   No vendor SIMD intrinsics (<immintrin.h> and friends,
                   _mm*/_MM_* calls, __m128/__m256/__m512 types) outside
                   src/common/simd.h.  Every kernel goes through the portable
                   simd:: wrappers so the scalar backend stays bitwise
                   equivalent and a new ISA backend is a one-file change;
                   a stray intrinsic in a kernel silently breaks both.
  des-std-function No std::function in the discrete-event core (src/sim/,
                   src/noc/).  Events live in the queue's pooled
                   inline-callable arena (sim::InlineFn); a std::function
                   parameter or member re-introduces a heap allocation per
                   event (any capture past its ~16-byte SSO) and defeats
                   the zero-allocation steady state.  Take a deduced
                   template parameter on the hot path, or store
                   sim::InlineFn.

Suppressions
------------
  // anton-lint: allow(rule[,rule...])   on the offending line or the line
                                         directly above it
  // anton-lint: skip-file               anywhere in the first 10 lines

Output
------
Diagnostics are GCC-style (`file:line: error: [rule-id] message`) so editors
and CI annotators can parse the location; `--json` emits the same findings
as an anton.lint.v1 JSON document instead.

Exit status: 0 if clean, 1 if any violation, 2 on usage error.
"""

import argparse
import json
import os
import re
import sys

RULES = ("hot-alloc", "unordered-iter", "fixed-literal", "iostream-lib",
         "raw-clock", "raw-intrinsics", "des-std-function")

SOURCE_EXTS = (".h", ".cc", ".cpp", ".hpp")

ALLOC_CALLS = re.compile(
    r"(?:"
    r"\bnew\b"
    r"|\.\s*push_back\s*\("
    r"|\.\s*emplace_back\s*\("
    r"|\.\s*resize\s*\("
    r"|\.\s*reserve\s*\("
    r"|\.\s*assign\s*\("
    r"|\.\s*insert\s*\("
    r"|\bmake_unique\s*<"
    r"|\bmake_shared\s*<"
    r"|\bstd::function\s*<"
    r")"
)

UNORDERED_DECL = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;=]*?>\s*&?\s*"
    r"(\w+)\s*[;={(),]"
)
RANGE_FOR = re.compile(r"\bfor\s*\(\s*[^;)]*?:\s*([^)]+)\)")

FLOAT_LITERAL = re.compile(
    r"(?<![\w.])(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+[eE][+-]?\d+)[fF]?"
)
FIXED_TOKEN = re.compile(r"\b(?:Fixed\s*<|FixedVec3\s*<|ForceFixed)\b")
FIXED_CONVERSIONS = re.compile(
    r"\b(?:from_double|to_double|resolution|max_magnitude|accumulate)\s*\("
)

RAW_CLOCK = re.compile(
    r"\bstd\s*::\s*chrono\s*::\s*"
    r"(?:steady_clock|high_resolution_clock)\s*::\s*now\s*\("
)
# The telemetry layer is the one sanctioned home of the wall clock.
RAW_CLOCK_ALLOWED_DIRS = ("src/obs/",)

RAW_INTRINSICS_INCLUDE = re.compile(
    r"#\s*include\s*<(?:immintrin|x86intrin|xmmintrin|emmintrin|pmmintrin|"
    r"tmmintrin|smmintrin|nmmintrin|wmmintrin|ammintrin|avx\w*intrin)\.h>"
)
# Intrinsic calls (_mm_..., _mm256_...), control macros (_MM_HINT_T0,
# _MM_SHUFFLE) and register types.  __builtin_prefetch is a compiler
# builtin, not a vendor intrinsic, and deliberately does not match.
RAW_INTRINSICS_USE = re.compile(
    r"(?:\b_mm\d*_\w+|\b_MM_\w+|\b__m(?:64|128|256|512)[di]?\b)"
)
# The portable SIMD layer is the one sanctioned home of raw intrinsics.
RAW_INTRINSICS_ALLOWED_FILES = ("src/common/simd.h",)

DES_STD_FUNCTION = re.compile(r"\bstd\s*::\s*function\s*<")
# The discrete-event core: every callable here rides the event queue's
# pooled inline arena, so std::function is banned file-wide (not just in
# annotated hot functions).  lint_fixtures is scanned so the seeded
# violation keeps the rule honest.
DES_NOFUNCTION_DIRS = ("src/sim/", "src/noc/", "tools/lint_fixtures/")

ALLOW_RE = re.compile(r"//\s*anton-lint:\s*allow\(([^)]*)\)")
SKIP_FILE_RE = re.compile(r"//\s*anton-lint:\s*skip-file")
# Two annotation forms mark a hot no-alloc function:
#   * macro form (preferred): `ANTON_HOT_NOALLOC();` as the first statement
#     of the body — also consumed by tools/anton_callgraph.py, which needs
#     the marker compiled into the callgraph.  The hot region is the
#     enclosing brace pair.
#   * comment form (legacy): `// ANTON_HOT_NOALLOC` alone on the line above
#     the signature; the region runs from the next '{' to its match.
ANNOTATION_COMMENT_RE = re.compile(r"^\s*//\s*ANTON_HOT_NOALLOC\s*$")
ANNOTATION_MACRO_RE = re.compile(r"\bANTON_HOT_NOALLOC\s*\(\s*\)\s*;")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        # GCC-style so editors and CI annotators parse the location.
        return f"{self.path}:{self.line}: error: [{self.rule}] {self.message}"

    def to_json(self):
        return {"file": self.path, "line": self.line, "rule": self.rule,
                "severity": "error", "message": self.message}


def strip_comments_and_strings(lines):
    """Returns lines with comments and string/char literals blanked out
    (lengths preserved so columns and brace positions stay meaningful)."""
    out = []
    in_block = False
    for line in lines:
        res = []
        i = 0
        n = len(line)
        in_str = None  # quote char when inside a literal
        while i < n:
            c = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if in_block:
                if c == "*" and nxt == "/":
                    res.append("  ")
                    i += 2
                    in_block = False
                else:
                    res.append(" ")
                    i += 1
            elif in_str:
                if c == "\\":
                    res.append("  ")
                    i += 2
                elif c == in_str:
                    res.append(c)
                    i += 1
                    in_str = None
                else:
                    res.append(" ")
                    i += 1
            elif c == "/" and nxt == "/":
                res.append(" " * (n - i))
                break
            elif c == "/" and nxt == "*":
                res.append("  ")
                i += 2
                in_block = True
            elif c in "\"'":
                res.append(c)
                in_str = c
                i += 1
            else:
                res.append(c)
                i += 1
        out.append("".join(res))
    return out


def allowed_rules(raw_lines, idx):
    """Set of rules suppressed for raw_lines[idx] (same line or line above)."""
    allowed = set()
    for j in (idx, idx - 1):
        if 0 <= j < len(raw_lines):
            m = ALLOW_RE.search(raw_lines[j])
            if m:
                allowed.update(r.strip() for r in m.group(1).split(","))
    return allowed


def hot_regions(raw_lines, code_lines):
    """Yields (start_idx, end_idx) line-index ranges (inclusive) of functions
    annotated hot.  Macro form (`ANTON_HOT_NOALLOC();` inside the body) maps
    to the enclosing brace pair; comment form (`// ANTON_HOT_NOALLOC` on its
    own line) maps from the first '{' at or after the annotation to its
    match."""
    regions = []
    n = len(code_lines)

    # --- comment form: forward scan from the annotation line -------------
    for idx, raw in enumerate(raw_lines):
        if not ANNOTATION_COMMENT_RE.match(raw):
            continue
        depth = 0
        start = None
        end = None
        i = idx
        while i < n and end is None:
            for ch in code_lines[i]:
                if ch == "{":
                    depth += 1
                    if start is None:
                        start = i
                elif ch == "}" and start is not None:
                    depth -= 1
                    if depth == 0:
                        end = i
                        break
            i += 1
        if start is not None:
            # Unterminated brace (malformed file): hot to end of file.
            regions.append((start, end if end is not None else n - 1))

    # --- macro form: the enclosing brace pair ----------------------------
    # One char-level pass with a brace stack; when the marker statement is
    # reached, the innermost open brace is the hot function's body.
    stack = []       # line indices of currently-unmatched '{'
    active = []      # [region_start_line, stack_depth_of_body]
    for i, code in enumerate(code_lines):
        m = ANNOTATION_MACRO_RE.search(code)
        marker_col = m.start() if m else None
        for col, ch in enumerate(code):
            if marker_col is not None and col == marker_col and stack:
                active.append([stack[-1], len(stack)])
            if ch == "{":
                stack.append(i)
            elif ch == "}":
                if stack:
                    stack.pop()
                still = []
                for reg in active:
                    if len(stack) < reg[1]:
                        regions.append((reg[0], i))
                    else:
                        still.append(reg)
                active = still
    for reg in active:
        regions.append((reg[0], n - 1))
    return regions


def check_hot_alloc(path, raw_lines, code_lines, violations):
    for start, end in hot_regions(raw_lines, code_lines):
        for i in range(start, end + 1):
            m = ALLOC_CALLS.search(code_lines[i])
            if not m:
                continue
            if "hot-alloc" in allowed_rules(raw_lines, i):
                continue
            violations.append(Violation(
                path, i + 1, "hot-alloc",
                f"heap-allocating call `{m.group(0).strip()}` inside an "
                "ANTON_HOT_NOALLOC function (hoist the buffer into a "
                "persistent workspace, or annotate amortized growth with "
                "`// anton-lint: allow(hot-alloc)`)"))


def check_unordered_iter(path, raw_lines, code_lines, violations):
    unordered_vars = set()
    for code in code_lines:
        for m in UNORDERED_DECL.finditer(code):
            unordered_vars.add(m.group(1))
    for i, code in enumerate(code_lines):
        m = RANGE_FOR.search(code)
        if not m:
            continue
        expr = m.group(1).strip()
        base = re.split(r"[.\-\[(]", expr)[0].strip().lstrip("*&")
        hit = base in unordered_vars or "unordered_map" in expr \
            or "unordered_set" in expr
        if not hit:
            continue
        if "unordered-iter" in allowed_rules(raw_lines, i):
            continue
        violations.append(Violation(
            path, i + 1, "unordered-iter",
            f"range-for over unordered container `{expr}`: iteration order "
            "is implementation-defined, so any accumulation it feeds is "
            "non-deterministic (copy keys into a sorted vector first)"))


def check_fixed_literal(path, raw_lines, code_lines, violations):
    includes_fixed = any(
        "common/fixed_point.h" in raw for raw in raw_lines[:80]
    ) or path.replace(os.sep, "/").endswith("common/fixed_point.h")
    if not includes_fixed:
        return
    for i, code in enumerate(code_lines):
        if not FIXED_TOKEN.search(code):
            continue
        if FIXED_CONVERSIONS.search(code):
            continue
        m = FLOAT_LITERAL.search(code)
        if not m:
            continue
        if "fixed-literal" in allowed_rules(raw_lines, i):
            continue
        violations.append(Violation(
            path, i + 1, "fixed-literal",
            f"floating literal `{m.group(0)}` mixed with fixed-point types "
            "without an explicit conversion (wrap it in "
            "Fixed<>::from_double(...) so the quantization is visible)"))


def check_iostream(path, raw_lines, code_lines, violations, lib_roots):
    norm = os.path.abspath(path)
    if lib_roots and not any(norm.startswith(r + os.sep) for r in lib_roots):
        return
    for i, code in enumerate(code_lines):
        if re.search(r"#\s*include\s*<iostream>", code):
            if "iostream-lib" in allowed_rules(raw_lines, i):
                continue
            violations.append(Violation(
                path, i + 1, "iostream-lib",
                "<iostream> in library code: stream globals add static-init "
                "hazards; use <sstream>/<ostream> (error.h) or return data"))


def check_raw_clock(path, raw_lines, code_lines, violations):
    norm = os.path.abspath(path).replace(os.sep, "/")
    if any("/" + d in norm or norm.startswith(d)
           for d in RAW_CLOCK_ALLOWED_DIRS):
        return
    for i, code in enumerate(code_lines):
        m = RAW_CLOCK.search(code)
        if not m:
            continue
        if "raw-clock" in allowed_rules(raw_lines, i):
            continue
        violations.append(Violation(
            path, i + 1, "raw-clock",
            f"raw clock read `{m.group(0).strip()}` outside src/obs/: use "
            "obs::wall_seconds() (obs/profiler.h) so timing flows through "
            "the telemetry layer"))


def check_raw_intrinsics(path, raw_lines, code_lines, violations):
    norm = os.path.abspath(path).replace(os.sep, "/")
    if any(norm.endswith("/" + f) for f in RAW_INTRINSICS_ALLOWED_FILES):
        return
    for i, code in enumerate(code_lines):
        m = RAW_INTRINSICS_INCLUDE.search(code) or \
            RAW_INTRINSICS_USE.search(code)
        if not m:
            continue
        if "raw-intrinsics" in allowed_rules(raw_lines, i):
            continue
        violations.append(Violation(
            path, i + 1, "raw-intrinsics",
            f"raw vendor intrinsic `{m.group(0).strip()}` outside "
            "src/common/simd.h: kernels must use the portable simd:: "
            "wrappers so the scalar backend stays bitwise equivalent "
            "(add the operation to simd.h if it is missing)"))


def check_des_std_function(path, raw_lines, code_lines, violations):
    norm = os.path.abspath(path).replace(os.sep, "/")
    if not any("/" + d in norm or norm.startswith(d)
               for d in DES_NOFUNCTION_DIRS):
        return
    for i, code in enumerate(code_lines):
        m = DES_STD_FUNCTION.search(code)
        if not m:
            continue
        if "des-std-function" in allowed_rules(raw_lines, i):
            continue
        violations.append(Violation(
            path, i + 1, "des-std-function",
            "std::function in the discrete-event core: it heap-allocates "
            "any capture past its SSO buffer, breaking the pooled "
            "zero-allocation event path (take a deduced template parameter "
            "or store sim::InlineFn)"))


def lint_file(path, rules, lib_roots):
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().splitlines()
    except OSError as e:
        print(f"anton-lint: cannot read {path}: {e}", file=sys.stderr)
        return []
    if any(SKIP_FILE_RE.search(line) for line in raw_lines[:10]):
        return []
    code_lines = strip_comments_and_strings(raw_lines)
    violations = []
    if "hot-alloc" in rules:
        check_hot_alloc(path, raw_lines, code_lines, violations)
    if "unordered-iter" in rules:
        check_unordered_iter(path, raw_lines, code_lines, violations)
    if "fixed-literal" in rules:
        check_fixed_literal(path, raw_lines, code_lines, violations)
    if "iostream-lib" in rules:
        check_iostream(path, raw_lines, code_lines, violations, lib_roots)
    if "raw-clock" in rules:
        check_raw_clock(path, raw_lines, code_lines, violations)
    if "raw-intrinsics" in rules:
        check_raw_intrinsics(path, raw_lines, code_lines, violations)
    if "des-std-function" in rules:
        check_des_std_function(path, raw_lines, code_lines, violations)
    return violations


def gather_files(paths):
    files = []
    for p in paths:
        if os.path.isfile(p):
            files.append(p)
        elif os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs[:] = [d for d in dirs if not d.startswith(("build", "."))]
                for name in sorted(names):
                    if name.endswith(SOURCE_EXTS):
                        files.append(os.path.join(root, name))
        else:
            print(f"anton-lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="anton-lint",
        description="Project-specific hot-path lint for anton2sim.")
    ap.add_argument("paths", nargs="*", default=["src"],
                    help="files or directories to scan (default: src)")
    ap.add_argument("--rules", default=",".join(RULES),
                    help="comma-separated rule subset to run")
    ap.add_argument("--lib-root", action="append", default=[],
                    help="directory treated as library code for iostream-lib "
                         "(default: every scanned directory)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--json", action="store_true",
                    help="emit violations as a JSON document on stdout "
                         "(for CI annotation) instead of GCC-style lines")
    ap.add_argument("-q", "--quiet", action="store_true",
                    help="suppress the summary line")
    args = ap.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    rules = set()
    for r in args.rules.split(","):
        r = r.strip()
        if not r:
            continue
        if r not in RULES:
            print(f"anton-lint: unknown rule '{r}' (see --list-rules)",
                  file=sys.stderr)
            return 2
        rules.add(r)

    paths = args.paths or ["src"]
    lib_roots = [os.path.abspath(p) for p in (args.lib_root or paths)
                 if os.path.isdir(p)]
    files = gather_files(paths)

    violations = []
    seen = set()
    for f in files:
        for v in lint_file(f, rules, lib_roots):
            # Overlapping annotated regions (e.g. a comment that mentions the
            # annotation above an annotated function) must not double-report.
            key = (v.path, v.line, v.rule)
            if key in seen:
                continue
            seen.add(key)
            violations.append(v)

    if args.json:
        json.dump({"schema": "anton.lint.v1",
                   "files_scanned": len(files),
                   "violations": [v.to_json() for v in violations]},
                  sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for v in violations:
            print(v)
    if not args.quiet:
        print(f"anton-lint: scanned {len(files)} files, "
              f"{len(violations)} violation(s)", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
