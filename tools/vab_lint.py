#!/usr/bin/env python3
"""vab_lint: domain static analyzer for determinism, typed-unit boundaries,
module layering and include hygiene.

The repro's core guarantee is that every seeded experiment is bit-identical
across thread counts and feature toggles. The golden-pin and multi-thread
suites enforce that *dynamically*; this analyzer enforces the hazard classes
*statically*, so a PR that reintroduces one fails CI before anyone has to
debug a golden re-pin.

Rules (suppress a deliberate use with `// vab-lint: allow(<rule-id>)` on the
same or the preceding line; annotate *why* next to it; a file containing
`// vab-lint: skip-file` is not analysed at all):

  no-libc-rand          rand()/srand()/rand_r(): process-global hidden state,
                        not seedable per trial. Use common::Rng.
  no-random-device      std::random_device: nondeterministic by definition.
  no-time-seeded-rng    constructing/seeding an RNG from a clock: every run
                        gets a different stream.
  no-pointer-key-order  std::map/std::set keyed on a raw pointer: ordering
                        follows allocation addresses, which vary run to run
                        (ASLR) and thread to thread.
  no-wallclock          std::chrono clocks / time() / gettimeofday outside
                        the observability layer: wall-clock reads feeding
                        logic make outcomes timing-dependent. Telemetry
                        belongs in obs/, timeouts in simulated time.
  pragma-once           every header starts with #pragma once.
  own-header-first      foo.cpp includes its own header before any other
                        include, proving the header is self-sufficient at
                        its primary point of use.
  no-using-namespace    file-scope `using namespace` in a header leaks into
                        every includer.
  simd-intrinsics-confined
                        raw SIMD intrinsics (immintrin/arm_neon includes,
                        _mm*/__m* tokens, NEON v*_f64 calls) outside
                        src/dsp/simd/: ISA-specific code must sit behind the
                        runtime dispatch layer, where the scalar-vs-SIMD
                        bit-identity suite covers it.
  unit-suffix-double-param
                        headers must not declare raw `double` function
                        parameters whose names carry a unit suffix (*_db,
                        *_hz, *_m, *_s); those boundaries take the strong
                        types from common/units.hpp. Grandfathered headers
                        live in tools/lint_allowlist.txt with a reason.
  rng-parallel-capture  an Rng captured into a parallel_for/parallel_reduce
                        body must only be used through .child(...); direct
                        draws make the draw order depend on scheduling.
  unordered-iter-accumulate
                        iterating a std::unordered_* container is flagged
                        only when the loop body accumulates or emits output
                        (the hash order would leak into results); pure
                        lookups and counting stay legal.
  layering              the module DAG is enforced from the real `#include`
                        edges: a module may include only lower-ranked
                        modules (obs is an include-anywhere sink), and no
                        cycle may appear. A file's module is the directory
                        after the last `src/` of its absolute path.

Header self-containment is not a rule here: the build compiles every src/
header alone (the vab_header_check target in tests/CMakeLists.txt).

Modes:
  vab_lint.py <root>...                 analyse sources under the roots
  vab_lint.py --list-rules              print rule ids and exit

Exit status: 0 clean, 1 findings, 2 usage/tool error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

CXX_EXTENSIONS = (".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h")
HEADER_EXTENSIONS = (".hpp", ".hh", ".h")

ALLOW_RE = re.compile(r"//\s*vab-lint:\s*allow\(([a-z0-9-]+)\)")
SKIP_FILE_RE = re.compile(r"//\s*vab-lint:\s*skip-file")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST_PATH = os.path.join(REPO_ROOT, "tools", "lint_allowlist.txt")


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    """A parsed translation unit: raw text plus a comment/string-blanked
    shadow with identical line structure, so rules can regex without false
    positives inside comments or string literals."""

    path: str
    raw: str
    # Rules allowed on every line (whole-file grandfathering from the
    # allowlist), on top of the per-line annotations.
    file_allows: frozenset[str] = frozenset()
    code: str = field(init=False)
    raw_lines: list[str] = field(init=False)
    code_lines: list[str] = field(init=False)
    allowed: dict[int, set[str]] = field(init=False)  # line -> rule ids

    def __post_init__(self) -> None:
        self.raw_lines = self.raw.splitlines()
        self.code = blank_comments_and_strings(self.raw)
        self.code_lines = self.code.splitlines()
        self.allowed = {}
        for i, line in enumerate(self.raw_lines, start=1):
            for match in ALLOW_RE.finditer(line):
                # An annotation covers its own line and the next one, so it
                # can sit above the flagged statement or trail it.
                self.allowed.setdefault(i, set()).add(match.group(1))
                self.allowed.setdefault(i + 1, set()).add(match.group(1))

    @property
    def is_header(self) -> bool:
        return self.path.endswith(HEADER_EXTENSIONS)

    @property
    def module(self) -> str | None:
        """The directory after the last `src` component of the absolute
        path (…/src/phy/modem.cpp -> "phy"); None outside a src/ tree."""
        dirs = os.path.dirname(os.path.abspath(self.path)).split(os.sep)
        if "src" not in dirs:
            return None
        last = len(dirs) - 1 - dirs[::-1].index("src")
        return dirs[last + 1] if last + 1 < len(dirs) else None

    def is_allowed(self, line: int, rule: str) -> bool:
        return rule in self.file_allows or rule in self.allowed.get(line, ())

    def line_of(self, offset: int) -> int:
        return self.code.count("\n", 0, offset) + 1


def blank_comments_and_strings(text: str) -> str:
    """Replaces comment and string-literal contents with spaces, preserving
    newlines so offsets map to the same line numbers."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if ch == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if ch == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(ch)
        elif state == "line_comment":
            if ch == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if ch == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if ch == "\\":
                out.append("  ")
                i += 2
                continue
            if ch == quote:
                state = "code"
                out.append(quote)
            elif ch == "\n":  # unterminated; resync rather than cascade
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def match_findings(src: SourceFile, rule: str, pattern: re.Pattern,
                   message: str) -> list[Finding]:
    found = []
    for m in pattern.finditer(src.code):
        line = src.line_of(m.start())
        if not src.is_allowed(line, rule):
            found.append(Finding(src.path, line, rule, message))
    return found


def extract_balanced(text: str, open_idx: int, open_ch: str,
                     close_ch: str) -> int:
    """Index of the closer matching the opener at open_idx, or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return -1


# --- nondeterminism bans ----------------------------------------------------

LIBC_RAND_RE = re.compile(
    r"\bstd\s*::\s*s?rand\s*\(|(?<![\w:.])(?:s?rand|rand_r)\s*\(")
RANDOM_DEVICE_RE = re.compile(r"\bstd\s*::\s*random_device\b")

RNG_TOKEN_RE = re.compile(
    r"\b(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine|ranlux\w+|"
    r"knuth_b|Rng)\b")
TIME_TOKEN_RE = re.compile(
    r"\bstd\s*::\s*chrono\b|(?<![\w:])time\s*\(|\bclock\s*\(\)|\brdtsc\b|"
    r"\bgettimeofday\b")

POINTER_KEY_RE = re.compile(
    r"\bstd\s*::\s*(?:map|set|multimap|multiset)\s*<\s*(?:const\s+)?[\w:]+"
    r"(?:\s*<[^<>]*>)?\s*\*")

WALLCLOCK_RE = re.compile(
    r"\bstd\s*::\s*chrono\b|\bsteady_clock\b|\bsystem_clock\b|"
    r"\bhigh_resolution_clock\b|\bgettimeofday\b|(?<![\w:.])time\s*\(\s*(?:nullptr|NULL|0)\s*\)")

# Paths (relative, slash-normalized) where wall-clock reads are legitimate:
# the observability layer exists to measure real time, and the thread pool
# parks workers on real-time waits.
WALLCLOCK_ALLOWED_PARTS = ("obs/", "common/parallel")


def rule_no_libc_rand(src: SourceFile) -> list[Finding]:
    return match_findings(
        src, "no-libc-rand", LIBC_RAND_RE,
        "libc rand()/srand() has process-global state; use common::Rng")


def rule_no_random_device(src: SourceFile) -> list[Finding]:
    return match_findings(
        src, "no-random-device", RANDOM_DEVICE_RE,
        "std::random_device is nondeterministic; seed a common::Rng explicitly")


def rule_no_time_seeded_rng(src: SourceFile) -> list[Finding]:
    found = []
    for i, line in enumerate(src.code_lines, start=1):
        if RNG_TOKEN_RE.search(line) and TIME_TOKEN_RE.search(line):
            if not src.is_allowed(i, "no-time-seeded-rng"):
                found.append(Finding(
                    src.path, i, "no-time-seeded-rng",
                    "seeding an RNG from a clock makes every run different; "
                    "derive seeds from the experiment seed"))
    return found


def rule_no_pointer_key_order(src: SourceFile) -> list[Finding]:
    return match_findings(
        src, "no-pointer-key-order", POINTER_KEY_RE,
        "ordered container keyed on a raw pointer orders by allocation "
        "address (varies per run); key on a stable id instead")


def rule_no_wallclock(src: SourceFile) -> list[Finding]:
    norm = src.path.replace(os.sep, "/")
    if any(part in norm for part in WALLCLOCK_ALLOWED_PARTS):
        return []
    return match_findings(
        src, "no-wallclock", WALLCLOCK_RE,
        "wall-clock read outside obs/: route timing through the "
        "observability layer or simulated time")


# --- SIMD intrinsic confinement ---------------------------------------------

# Raw-intrinsic fingerprints: x86 intrinsic headers and <arm_neon.h>, SSE/AVX
# calls and vector types, NEON vector types and the v...(_lane)_{f,s,u,p}N
# call family. Matched against the blanked shadow, so discussing an intrinsic
# in a comment (as dsp docs do) never trips it.
SIMD_INTRINSICS_RE = re.compile(
    r"#\s*include\s*<(?:immintrin|x86intrin|arm_neon|[a-z]+mmintrin)\.h>"
    r"|\b_mm(?:256|512)?_\w+"
    r"|\b__m(?:64|128|256|512)[dih]?\b"
    r"|\b(?:float|poly|u?int)(?:8|16|32|64)x(?:1|2|4|8|16)_t\b"
    r"|\bv[a-z][a-z0-9_]*_[fsup](?:8|16|32|64)\s*\(")

# The one directory where ISA-specific code is legitimate: each arch header
# plus the per-ISA translation units, all gated by the bit-identity suite.
SIMD_ALLOWED_PARTS = ("dsp/simd/",)


def rule_simd_intrinsics_confined(src: SourceFile) -> list[Finding]:
    norm = src.path.replace(os.sep, "/")
    if any(part in norm for part in SIMD_ALLOWED_PARTS):
        return []
    return match_findings(
        src, "simd-intrinsics-confined", SIMD_INTRINSICS_RE,
        "raw SIMD intrinsic outside src/dsp/simd/: call the dispatched "
        "dsp::simd kernels so every ISA stays behind the bit-identity gate")


# --- typed-unit boundaries --------------------------------------------------

UNIT_SUFFIX_RE = re.compile(r"_(?:db|hz|m|s)$")
DOUBLE_PARAM_RE = re.compile(r"\bdouble\s+(\w+)")


def rule_unit_suffix_double_param(src: SourceFile) -> list[Finding]:
    """Flags `double name_db/_hz/_m/_s` in *parameter* position in headers.

    A declaration terminated by `;` or `}` before any `,`/`)` at its own
    nesting level is a field or local (raw storage stays legal: structs of
    plain numbers are the serialization/config layer); one terminated by
    `,` or `)` sits in a parameter list and must take a strong unit type.
    """
    if not src.is_header:
        return []
    found = []
    for m in DOUBLE_PARAM_RE.finditer(src.code):
        name = m.group(1)
        if not UNIT_SUFFIX_RE.search(name):
            continue
        i, n = m.end(), len(src.code)
        depth = 0
        terminator = ""
        while i < n:
            ch = src.code[i]
            if ch in "([{<":
                depth += 1
            elif ch in ")]}>":
                if depth == 0:
                    terminator = ch
                    break
                depth -= 1
            elif depth == 0 and ch in ";,":
                terminator = ch
                break
            i += 1
        if terminator not in (",", ")"):
            continue  # field, local, or array declaration
        line = src.line_of(m.start())
        if src.is_allowed(line, "unit-suffix-double-param"):
            continue
        unit = {"db": "Db/SnrDb", "hz": "Hz", "m": "Meters",
                "s": "Seconds"}[UNIT_SUFFIX_RE.search(name).group(0)[1:]]
        found.append(Finding(
            src.path, line, "unit-suffix-double-param",
            f"parameter '{name}' is a raw double carrying a unit suffix; "
            f"take common::{unit} (see common/units.hpp) so callers cannot "
            "pass the wrong domain"))
    return found


# --- parallel Rng discipline ------------------------------------------------

DRAW_METHODS = (
    "uniform", "uniform_int", "gaussian", "complex_gaussian", "coin",
    "random_bits", "gaussian_vector", "engine",
)
PARALLEL_CALL_RE = re.compile(r"\bparallel_(?:for|reduce)\s*(?:<[^;{}]*?>)?\s*\(")
LAMBDA_RE = re.compile(r"\[([^\]\n]*)\]\s*\(([^)]*)\)")
DRAW_RE = re.compile(
    r"\b(\w+)\s*(?:\.|->)\s*(" + "|".join(DRAW_METHODS) + r")\s*\(")
CHILD_LOCAL_RE = re.compile(
    r"\b(?:auto|Rng|common::Rng)\s*&?\s+(\w+)\s*=\s*[\w.\->:]+\.child\s*\(")


def rule_rng_parallel_capture(src: SourceFile) -> list[Finding]:
    """Flags draws from a captured Rng inside parallel_for/parallel_reduce
    lambda bodies. Legal uses: `rng.child(i)` itself (deriving the per-index
    stream), draws from a lambda parameter, and draws from an Rng declared
    inside the body via `.child(...)`."""
    found = []
    for call in PARALLEL_CALL_RE.finditer(src.code):
        open_paren = src.code.index("(", call.end() - 1)
        close_paren = extract_balanced(src.code, open_paren, "(", ")")
        if close_paren < 0:
            continue
        args = src.code[open_paren:close_paren + 1]
        for lam in LAMBDA_RE.finditer(args):
            captures = lam.group(1)
            params = {p.split()[-1].lstrip("&*")
                      for p in lam.group(2).split(",") if p.strip()}
            body_open = args.find("{", lam.end())
            if body_open < 0:
                continue
            body_close = extract_balanced(args, body_open, "{", "}")
            if body_close < 0:
                continue
            body = args[body_open:body_close + 1]
            capture_default = "&" in captures or "=" in captures
            explicit = {c.strip().lstrip("&*")
                        for c in captures.split(",") if c.strip()}
            local = set(CHILD_LOCAL_RE.findall(body)) | params
            for draw in DRAW_RE.finditer(body):
                name, method = draw.group(1), draw.group(2)
                if name in local:
                    continue
                if not (capture_default or name in explicit):
                    continue
                line = src.line_of(open_paren + body_open + draw.start())
                if src.is_allowed(line, "rng-parallel-capture"):
                    continue
                found.append(Finding(
                    src.path, line, "rng-parallel-capture",
                    f"'{name}.{method}()' draws from a captured Rng inside a "
                    "parallel body; derive a per-index stream with "
                    f"'{name}.child(i)' so draw order cannot depend on "
                    "scheduling"))
    return found


# --- hash-order leaks -------------------------------------------------------

ACCUMULATE_RE = re.compile(
    r"(?:\+=|\|=|\^=|<<|\bpush_back\s*\(|\bemplace_back\s*\(|"
    r"\bappend\s*\(|\binsert\s*\(|\bemplace\s*\()")
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*?>\s*&?\s*(\w+)")
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?[\w:<>,&*\s\[\]]+?:\s*(\w+)\s*\)")
ITER_LOOP_RE = re.compile(r"=\s*(\w+)\s*\.\s*(?:begin|cbegin)\s*\(")


def rule_unordered_iter_accumulate(src: SourceFile) -> list[Finding]:
    """Flags iteration over std::unordered_* containers whose loop body
    accumulates or emits (the hash order reaches a result); bodies that only
    count or look up stay legal."""
    unordered_names = set(UNORDERED_DECL_RE.findall(src.code))
    if not unordered_names:
        return []
    found = []
    for pattern in (RANGE_FOR_RE, ITER_LOOP_RE):
        for m in pattern.finditer(src.code):
            name = m.group(1)
            if name not in unordered_names:
                continue
            scan = m.end()
            if pattern is ITER_LOOP_RE:
                # `it = c.begin()` sits inside a for/while header; the body
                # starts after the header's closing paren, not after the
                # init clause's `;`.
                header = None
                for f in re.finditer(r"\b(?:for|while)\s*\(",
                                     src.code[:m.start()]):
                    header = f
                if header is None:
                    continue
                header_close = extract_balanced(src.code, header.end() - 1,
                                                "(", ")")
                if header_close < m.start():
                    continue
                scan = header_close + 1
            body_open = src.code.find("{", scan)
            stmt_end = src.code.find(";", scan)
            if body_open < 0 or (0 <= stmt_end < body_open):
                body = src.code[scan:stmt_end + 1 if stmt_end >= 0
                                else len(src.code)]
            else:
                body_close = extract_balanced(src.code, body_open, "{", "}")
                if body_close < 0:
                    continue
                body = src.code[body_open:body_close + 1]
            if not ACCUMULATE_RE.search(body):
                continue
            line = src.line_of(m.start())
            if src.is_allowed(line, "unordered-iter-accumulate"):
                continue
            found.append(Finding(
                src.path, line, "unordered-iter-accumulate",
                f"iteration over unordered container '{name}' feeds an "
                "accumulation or output in hash order; sort the keys (or "
                "the results) before they reach any reduction or stream"))
    return found


# --- module layering --------------------------------------------------------

#: Module ranks for the layering DAG. An `#include "mod/..."` edge from
#: module A to module B is legal iff A == B, B is a sink, or
#: rank(A) > rank(B). Ranks mirror DESIGN.md's layer diagram.
MODULE_RANKS = {
    "common": 0,
    "dsp": 1,
    "fault": 1,
    "piezo": 1,
    "vanatta": 1,
    "channel": 2,
    "phy": 2,
    "net": 3,
    "sim": 4,
    "core": 5,
}

#: Modules any layer (including common) may include, and which may include
#: nothing outside themselves: pure observability sinks.
SINK_MODULES = {"obs"}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+([<"])([^">]+)[">]', re.MULTILINE)


def include_edges(src: SourceFile) -> list[tuple[str, int]]:
    """(target module, line) for each quoted include that leaves the file's
    module. Quoted include paths are rooted at src/ ("phy/modem.hpp"), so
    the first segment names the module; unknown names surface as findings
    rather than silently passing. Scanned in the raw text: comment/string
    blanking erases the include target."""
    mod = src.module
    if mod is None:
        return []
    edges = []
    for m in INCLUDE_RE.finditer(src.raw):
        parts = m.group(2).split("/")
        if m.group(1) != '"' or len(parts) < 2:
            continue
        target = parts[0]
        if target != mod:
            edges.append((target, src.raw.count("\n", 0, m.start()) + 1))
    return edges


def rule_layering(src: SourceFile) -> list[Finding]:
    """Validates every cross-module include edge against MODULE_RANKS."""
    mod = src.module
    found = []
    for target, line in include_edges(src):
        if target in SINK_MODULES:
            continue
        if mod in SINK_MODULES:
            if not src.is_allowed(line, "layering"):
                found.append(Finding(
                    src.path, line, "layering",
                    f"sink module '{mod}' must not include '{target}': obs "
                    "is observable from every layer precisely because it "
                    "depends on none of them"))
            continue
        if mod not in MODULE_RANKS or target not in MODULE_RANKS:
            found.append(Finding(
                src.path, line, "layering",
                f"unknown module in edge '{mod}' -> '{target}'; add it "
                "to MODULE_RANKS in tools/vab_lint.py"))
            continue
        if MODULE_RANKS[mod] <= MODULE_RANKS[target]:
            if not src.is_allowed(line, "layering"):
                found.append(Finding(
                    src.path, line, "layering",
                    f"downward include: '{mod}' (rank {MODULE_RANKS[mod]}) "
                    f"may not include '{target}' (rank "
                    f"{MODULE_RANKS[target]}); dependencies must point "
                    "strictly down the layer diagram"))
    return found


def check_module_cycles(sources: list[SourceFile]) -> list[Finding]:
    """Rejects a cycle in the module graph observed across all sources (a
    cycle can exist even when each individual edge would pass a weaker
    same-rank rule). Reports the first cycle found."""
    edges: dict[tuple[str, str], tuple[str, int]] = {}
    for src in sources:
        for target, line in include_edges(src):
            edges.setdefault((src.module, target), (src.path, line))
    graph: dict[str, set[str]] = {}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)
    state: dict[str, int] = {}
    stack: list[str] = []

    def visit(node: str) -> list[str] | None:
        state[node] = 1
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt, 0) == 1:
                return stack[stack.index(nxt):] + [nxt]
            if state.get(nxt, 0) == 0:
                cycle = visit(nxt)
                if cycle:
                    return cycle
        stack.pop()
        state[node] = 2
        return None

    for node in sorted(graph):
        if state.get(node, 0) == 0:
            cycle = visit(node)
            if cycle:
                path, line = edges[(cycle[0], cycle[1])]
                return [Finding(path, line, "layering",
                                "module cycle detected: " + " -> ".join(cycle))]
    return []


# --- include hygiene --------------------------------------------------------

def rule_pragma_once(src: SourceFile) -> list[Finding]:
    if not src.is_header:
        return []
    for i, line in enumerate(src.code_lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if re.match(r"#\s*pragma\s+once\b", stripped):
            return []
        return [Finding(src.path, i, "pragma-once",
                        "header must start with #pragma once (before any "
                        "code)")]
    return [Finding(src.path, 1, "pragma-once", "empty header lacks #pragma once")]


def rule_own_header_first(src: SourceFile) -> list[Finding]:
    if src.is_header:
        return []
    stem = os.path.splitext(src.path)[0]
    own = None
    for ext in HEADER_EXTENSIONS:
        if os.path.exists(stem + ext):
            own = os.path.basename(stem + ext)
            break
    if own is None:
        return []
    # Include paths are string literals, so match the raw text; the blanked
    # shadow is only consulted to skip includes inside comments.
    first = None
    for m in INCLUDE_RE.finditer(src.raw):
        line = src.raw.count("\n", 0, m.start()) + 1
        if "include" in src.code_lines[line - 1]:
            first = (m, line)
            break
    if first is None:
        return []
    m, line = first
    if m.group(1) == '"' and os.path.basename(m.group(2)) == own:
        return []
    if src.is_allowed(line, "own-header-first"):
        return []
    return [Finding(src.path, line, "own-header-first",
                    f'first include must be the unit\'s own header "{own}" '
                    "(proves the header is self-contained)")]


def rule_no_using_namespace(src: SourceFile) -> list[Finding]:
    if not src.is_header:
        return []
    return match_findings(
        src, "no-using-namespace",
        re.compile(r"^\s*using\s+namespace\s+\w", re.MULTILINE),
        "`using namespace` in a header leaks into every includer")


RULES = [
    rule_no_libc_rand,
    rule_no_random_device,
    rule_no_time_seeded_rng,
    rule_no_pointer_key_order,
    rule_no_wallclock,
    rule_pragma_once,
    rule_own_header_first,
    rule_no_using_namespace,
    rule_simd_intrinsics_confined,
    rule_unit_suffix_double_param,
    rule_rng_parallel_capture,
    rule_unordered_iter_accumulate,
    rule_layering,
]

RULE_IDS = [
    "no-libc-rand", "no-random-device", "no-time-seeded-rng",
    "no-pointer-key-order", "no-wallclock", "pragma-once",
    "own-header-first", "no-using-namespace", "simd-intrinsics-confined",
    "unit-suffix-double-param", "rng-parallel-capture",
    "unordered-iter-accumulate", "layering",
]


# --- entry points -----------------------------------------------------------

def load_allowlist() -> dict[str, str]:
    """lint_allowlist.txt: `<repo-relative header> :: <reason>` per line,
    keyed here by absolute path. The listed headers are exempt from
    unit-suffix-double-param only."""
    grandfathered: dict[str, str] = {}
    with open(ALLOWLIST_PATH, encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            rel, _, reason = raw.partition("::")
            grandfathered[os.path.normpath(
                os.path.join(REPO_ROOT, rel.strip()))] = reason.strip()
    return grandfathered


def lint_source(src: SourceFile) -> list[Finding]:
    findings = []
    seen = set()
    for rule in RULES:
        for finding in rule(src):
            # One report per (line, rule, message): a single hazardous
            # statement often trips several sub-patterns of the same rule.
            key = (finding.line, finding.rule, finding.message)
            if key not in seen:
                seen.add(key)
                findings.append(finding)
    return findings


def lint_files(paths: list[str],
               allowlist: dict[str, str] | None = None) -> list[Finding]:
    """Every rule over each file, plus the module-cycle check across all of
    them. `allowlist` defaults to tools/lint_allowlist.txt."""
    if allowlist is None:
        allowlist = load_allowlist()
    sources = []
    for path in paths:
        with open(path, encoding="utf-8", errors="replace") as fh:
            raw = fh.read()
        if SKIP_FILE_RE.search(raw):
            continue
        allows = (frozenset({"unit-suffix-double-param"})
                  if os.path.abspath(path) in allowlist else frozenset())
        sources.append(SourceFile(path, raw, allows))
    findings = [f for src in sources for f in lint_source(src)]
    findings += check_module_cycles(sources)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def lint_file(path: str) -> list[Finding]:
    return lint_files([path])


def collect_sources(roots: list[str]) -> list[str]:
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
            continue
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if name.endswith(CXX_EXTENSIONS):
                    files.append(os.path.join(dirpath, name))
    return sorted(set(files))


def main() -> int:
    parser = argparse.ArgumentParser(
        description="determinism/units/layering/hygiene analyzer for the "
                    "vab tree")
    parser.add_argument("roots", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        for rule_id in RULE_IDS:
            print(rule_id)
        return 0

    roots = args.roots or ["src"]
    files = collect_sources(roots)
    if not files:
        print(f"vab_lint: no C++ sources under {roots}", file=sys.stderr)
        return 2

    findings = lint_files(files)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for finding in findings:
        print(finding.format())
    print(f"vab_lint: {len(files)} files, {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
