#!/usr/bin/env python3
"""sfs_lint: determinism & API-invariant static analysis for sfsearch.

The repo's credibility rests on bit-identity invariants (seq==parallel
portfolios, frozen derive_stream_seed streams, audited seed derivation,
byte-stable BENCH_JSON artifacts).  Runtime tests enforce them after the fact; this
linter enforces them *statically*, so a stray `std::mt19937` or a raw
`derive_stream_seed` call is rejected before it can silently decorrelate
a measurement.  Full rule catalog and war stories: docs/ANALYSIS.md.

Rules
-----
  rng-sources         (R1) no std::mt19937 / std::random_device / rand()
                      / clock-as-entropy outside src/rng/ and the test
                      allowlist.  All randomness flows from sfs::rng.
  raw-derive          (R2) rng::derive_stream_seed callers outside
                      src/rng/ must route through audited_stream_seed or
                      audited_counter_seed (the stream audit once caught a
                      real seed collision this rule prevents statically).
  unordered-emission  (R3) no iteration over std::unordered_{map,set} in
                      a TU that touches the sim/report emitter surface —
                      hash-iteration order would leak into committed
                      artifacts.
  check-discipline    (R5) no raw `throw` / `assert(` in src/ — use
                      SFS_REQUIRE / SFS_CHECK (base/check.hpp) so
                      failures carry expression, location, and context.
  rng-reachability    (R6) cross-TU call-graph pass: every path from an
                      experiment run-fn (`.run = fn` in an
                      ExperimentSpec initializer) to a raw Rng /
                      Philox4x64 construction must traverse an audited
                      seed derivation (audited_stream_seed,
                      audited_counter_seed, *.stream_seed).  An
                      experiment whose call chain seeds an engine any
                      other way can silently correlate replications.
  float-order         (R7) no unordered floating-point accumulation in a
                      TU feeding BENCH_JSON artifacts: std::reduce /
                      std::transform_reduce (reduction order
                      unspecified), parallel execution policies, and
                      std::accumulate over unordered containers are all
                      rejected — FP addition does not commute, so the
                      emitted bytes would depend on hashing/scheduling.
  layering            (R8) src/ include DAG base→rng→graph→gen→stats→
                      search→sim→core: an upward #include across layer
                      directories is a violation (so include cycles are
                      impossible by construction), and every contiguous
                      run of quoted includes must be sorted (the sorted
                      form is mechanically restorable with --fix).

Suppression
-----------
A violation is suppressible ONLY via an annotation on the same line or
the line directly above, with a mandatory non-empty reason:

    // SFS_LINT_ALLOW(check-discipline): I/O failure is environmental,
    //   std::runtime_error is the documented contract.

An SFS_LINT_ALLOW without a reason (or naming an unknown rule) is itself
a violation (`allow-no-reason` / `allow-unknown-rule`) and cannot be
suppressed.

Engine
------
The lint lexes each file, strips comments and string/character literals
with full raw-string support, and applies the rules to the remaining
token text — no network, no non-stdlib deps.  The R6 call graph is built
from the same lexed text (function definitions + call edges).  The
fixture corpus under tests/lint_fixtures/ pins every rule's behavior
(`--self-test`, which also asserts that `--fix` is idempotent).

Fixing
------
`--fix` rewrites the mechanically fixable findings in place: raw
single-line `assert(expr);` in src/ becomes `SFS_CHECK(expr, "expr");`
(inserting the base/check.hpp include when needed), and unsorted
quoted-include runs are stably sorted.  Running --fix twice is a no-op
by construction.

Exit codes: 0 clean, 1 violations found (or self-test mismatch), 2
usage/configuration error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

# --------------------------------------------------------------------------
# Rule table
# --------------------------------------------------------------------------

# Directories scanned by --all, relative to the repo root.
SCAN_DIRS = ("src", "bench", "examples", "tests")
SOURCE_SUFFIXES = (".cpp", ".hpp", ".cc", ".hh", ".h")
# Deliberate-violation corpus for --self-test; never part of --all.
FIXTURE_DIR = "tests/lint_fixtures"

# The include-layering DAG (R8): a src/<dir>/ file may include only from
# its own directory or directories of strictly lower rank.  This is the
# one-way dependency order the whole library is built around; an upward
# include is how cycles (and untestable layers) start.
LAYER_RANK = {
    "base": 0,
    "rng": 1,
    "graph": 2,
    "gen": 3,
    "stats": 4,
    "search": 5,
    "sim": 6,
    "core": 7,
}


def _in_dir(path: str, prefix: str) -> bool:
    return path == prefix or path.startswith(prefix + "/")


@dataclass(frozen=True)
class Rule:
    name: str
    summary: str
    in_scope: object  # Callable[[str], bool] over repo-relative posix paths


# R1: files where process-global or non-sfs RNG sources are legitimate.
# src/rng/ *implements* the RNG layer; the test allowlist names tests that
# exercise third-party generator parity on purpose (currently none — add a
# path here, with a PR justification, rather than sprinkling ALLOWs).
R1_ALLOWED_PATHS: tuple[str, ...] = ()

RULES = {
    "rng-sources": Rule(
        "rng-sources",
        "std RNG / libc rand / clock-as-entropy outside src/rng/",
        lambda p: not _in_dir(p, "src/rng") and p not in R1_ALLOWED_PATHS,
    ),
    "raw-derive": Rule(
        "raw-derive",
        "raw rng::derive_stream_seed call outside src/rng/ "
        "(use audited_stream_seed / audited_counter_seed)",
        lambda p: not _in_dir(p, "src/rng"),
    ),
    "unordered-emission": Rule(
        "unordered-emission",
        "unordered-container iteration in a TU touching the "
        "sim/report emitter surface",
        lambda p: True,
    ),
    "check-discipline": Rule(
        "check-discipline",
        "raw throw/assert in src/ (use SFS_REQUIRE / SFS_CHECK)",
        lambda p: _in_dir(p, "src") and p != "src/base/check.hpp",
    ),
    "rng-reachability": Rule(
        "rng-reachability",
        "experiment-reachable Rng/Philox construction without an "
        "audited/versioned seed derivation on the path (cross-TU)",
        # tests/ are no experiment entry path and legitimately pin literal
        # seeds; src/rng implements the engines.
        lambda p: not _in_dir(p, "src/rng") and not _in_dir(p, "tests"),
    ),
    "float-order": Rule(
        "float-order",
        "unordered floating-point accumulation (std::reduce / parallel "
        "policy / accumulate over unordered) in an emitter TU",
        lambda p: True,
    ),
    "layering": Rule(
        "layering",
        "upward include across the src/ layer DAG, or an unsorted "
        "quoted-include run (--fix restores order)",
        lambda p: _in_dir(p, "src"),
    ),
}

# Rules evaluated over the whole lint corpus at once rather than one file
# at a time (they need the cross-TU call graph).
CORPUS_RULES = ("rng-reachability",)

# Meta-diagnostics emitted by the suppression machinery itself.  They are
# not suppressible and fire regardless of path scope.
META_RULES = ("allow-no-reason", "allow-unknown-rule")


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Lexing: strip comments and string/char literals, keep line structure
# --------------------------------------------------------------------------

@dataclass
class LexedFile:
    """`code` has comments and literal *contents* blanked (same line count
    and column positions as the original); `comments` maps line -> comment
    text found on that line (concatenated if several)."""

    code: str
    comments: dict[int, str] = field(default_factory=dict)


def lex(text: str) -> LexedFile:
    out: list[str] = []
    comments: dict[int, str] = {}
    i, n = 0, len(text)
    line = 1

    def note_comment(ln: int, s: str) -> None:
        comments[ln] = comments.get(ln, "") + s

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            note_comment(line, text[i:j])
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            chunk = text[i:j]
            # Attribute each comment line's text to its own line number.
            for k, part in enumerate(chunk.split("\n")):
                note_comment(line + k, part)
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            line += chunk.count("\n")
            i = j
        elif c == 'R' and nxt == '"' and (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
            # Raw string literal R"delim( ... )delim"
            m = re.match(r'R"([^()\\ \t\n]{0,16})\(', text[i:])
            if not m:
                out.append(c)
                i += 1
                continue
            closer = ")" + m.group(1) + '"'
            j = text.find(closer, i + m.end())
            j = n if j == -1 else j + len(closer)
            chunk = text[i:j]
            out.append('""' + "".join(ch if ch == "\n" else " " for ch in chunk[2:]))
            line += chunk.count("\n")
            i = j
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                if j < n and text[j] == "\n":
                    break  # unterminated literal; stop at line end
                j += 1
            j = min(j + 1, n)
            out.append(quote + " " * max(0, j - i - 2) + (quote if j - i >= 2 else ""))
            line += text[i:j].count("\n")
            i = j
        else:
            if c == "\n":
                line += 1
            out.append(c)
            i += 1
    return LexedFile("".join(out), comments)


# --------------------------------------------------------------------------
# Suppression annotations
# --------------------------------------------------------------------------

ALLOW_RE = re.compile(
    r"SFS_LINT_ALLOW\s*\(\s*([A-Za-z0-9_-]*)\s*\)\s*(?::\s*(.*))?$")
# Prose may mention SFS_LINT_ALLOW without parentheses (docs, fixture
# headers); only the call-shaped form is an annotation attempt.
ALLOW_ATTEMPT_RE = re.compile(r"SFS_LINT_ALLOW\s*\(")
# Fixtures declare the path they pretend to live at, so path-scoped rules
# are exercised for real from inside tests/lint_fixtures/.
FIXTURE_PATH_RE = re.compile(r"SFS_LINT_FIXTURE_PATH:\s*(\S+)")


@dataclass
class Allow:
    line: int
    rule: str
    reason: str


def parse_allows(lexed: LexedFile) -> tuple[list[Allow], list[Finding]]:
    """Returns (valid allows, meta findings for malformed ones)."""
    allows: list[Allow] = []
    meta: list[Finding] = []
    for ln, comment in sorted(lexed.comments.items()):
        m = ALLOW_RE.search(comment)
        if not m:
            if ALLOW_ATTEMPT_RE.search(comment):
                meta.append(Finding("", ln, "allow-no-reason",
                                    "malformed SFS_LINT_ALLOW — expected "
                                    "SFS_LINT_ALLOW(rule): reason"))
            continue
        rule, reason = m.group(1), (m.group(2) or "").strip()
        if rule not in RULES:
            meta.append(Finding("", ln, "allow-unknown-rule",
                                f"SFS_LINT_ALLOW names unknown rule '{rule}'"))
            continue
        if not reason:
            meta.append(Finding("", ln, "allow-no-reason",
                                f"SFS_LINT_ALLOW({rule}) has no reason — a "
                                "justification is mandatory"))
            continue
        allows.append(Allow(ln, rule, reason))
    return allows, meta


def apply_allows(findings: list[Finding], allows: list[Allow]) -> list[Finding]:
    """An allow on line L suppresses findings of its rule on L (trailing
    annotation) and L+1 (annotation on its own line above)."""
    allowed: set[tuple[str, int]] = set()
    for a in allows:
        allowed.add((a.rule, a.line))
        allowed.add((a.rule, a.line + 1))
    return [f for f in findings if (f.rule, f.line) not in allowed]


# --------------------------------------------------------------------------
# Per-file rules
# --------------------------------------------------------------------------

R1_STD_RNG_RE = re.compile(
    r"\bstd\s*::\s*(mt19937(?:_64)?|random_device|default_random_engine|"
    r"minstd_rand0?|ranlux(?:24|48)(?:_base)?|knuth_b|s?rand)\b")
R1_LIBC_RNG_RE = re.compile(r"(?<![\w:.>])(rand|srand|random|srandom|"
                            r"drand48|lrand48|mrand48|rand_r)\s*\(")
R1_TIME_ENTROPY_RE = re.compile(r"\btime\s*\(\s*(?:0|NULL|nullptr)\s*\)")
R1_CLOCK_SEED_RE = re.compile(
    r"(seed|Seed|Rng|rng)\w*[^;\n]*_clock\s*::\s*now\s*\(|"
    r"_clock\s*::\s*now\s*\(\s*\)[^;\n]*\b(seed|Seed)")

R2_RE = re.compile(r"\bderive_stream_seed\s*\(")

R3_SURFACE_RE = re.compile(
    r'#\s*include\s*"sim/(report|experiment)\.hpp"|'
    r"\bResultsEmitter\b|\bemit_object\b|\bBENCH_JSON\b")
R3_DECL_RE = re.compile(r"\bstd\s*::\s*unordered_(?:map|set)\s*<[^;{]*?>\s+(\w+)")

R5_THROW_RE = re.compile(r"\bthrow\b")
R5_ASSERT_RE = re.compile(r"(?<!static_)\bassert\s*\(")

# R7: the lexer blanks string contents, so the include form of the emitter
# surface must be spotted in the original text.
R7_INCLUDE_SURFACE_RE = re.compile(
    r'#\s*include\s*"sim/(report|experiment)\.hpp"')
R7_REDUCE_RE = re.compile(r"\bstd\s*::\s*(?:transform_reduce|reduce)\s*\(")
R7_EXEC_POLICY_RE = re.compile(
    r"\bstd\s*::\s*execution\s*::\s*(?:par_unseq|par|unseq)\b")
R7_ACCUMULATE_RE = re.compile(
    r"\baccumulate\s*\(\s*([A-Za-z_]\w*)\s*\.\s*c?begin\s*\(")

R8_INCLUDE_RE = re.compile(r'\s*#\s*include\s*"([^"]+)"')


def _line_findings(path: str, code: str, regex: re.Pattern, rule: str,
                   message: str) -> list[Finding]:
    found = []
    for idx, line_text in enumerate(code.split("\n"), start=1):
        if regex.search(line_text):
            found.append(Finding(path, idx, rule, message))
    return found


def token_rule_rng_sources(path: str, lexed: LexedFile,
                           original: str = "") -> list[Finding]:
    out = []
    out += _line_findings(path, lexed.code, R1_STD_RNG_RE, "rng-sources",
                          "std::<random> engine/device — all randomness must "
                          "come from sfs::rng (src/rng/) so streams stay "
                          "seeded, derived, and auditable")
    out += _line_findings(path, lexed.code, R1_LIBC_RNG_RE, "rng-sources",
                          "libc RNG — process-global, unseeded-by-discipline; "
                          "use sfs::rng")
    out += _line_findings(path, lexed.code, R1_TIME_ENTROPY_RE, "rng-sources",
                          "time(...) as entropy — wall clock in a seed makes "
                          "every run unreproducible")
    out += _line_findings(path, lexed.code, R1_CLOCK_SEED_RE, "rng-sources",
                          "clock-derived value feeding a seed/Rng — "
                          "reproducibility requires explicit seeds")
    return out


def token_rule_raw_derive(path: str, lexed: LexedFile,
                          original: str = "") -> list[Finding]:
    return _line_findings(
        path, lexed.code, R2_RE, "raw-derive",
        "raw derive_stream_seed call — route through "
        "rng::audited_stream_seed (SFS_RNG_AUDIT coverage) or "
        "rng::audited_counter_seed; the stream audit once caught a real "
        "seed collision here")


def token_rule_unordered_emission(path: str, lexed: LexedFile,
                                  original: str = "") -> list[Finding]:
    code = lexed.code
    if not R3_SURFACE_RE.search(code):
        return []
    out: list[Finding] = []
    unordered_vars = set(R3_DECL_RE.findall(code))
    msg = ("iteration over a std::unordered_ container in an emitter TU — "
           "hash-iteration order is implementation-defined and would leak "
           "into committed BENCH_JSON artifacts; iterate a sorted copy or "
           "an ordered container")
    for idx, line_text in enumerate(code.split("\n"), start=1):
        # Range-for directly over an unordered temporary or declared var.
        m = re.search(r"for\s*\([^;)]*:\s*([\w:]+)", line_text)
        if m:
            target = m.group(1).split("::")[-1]
            if target in unordered_vars or "unordered_" in m.group(1):
                out.append(Finding(path, idx, "unordered-emission", msg))
                continue
        # Explicit iterator walks: var.begin() / var.cbegin().
        m = re.search(r"\b(\w+)\s*\.\s*c?begin\s*\(", line_text)
        if m and m.group(1) in unordered_vars:
            out.append(Finding(path, idx, "unordered-emission", msg))
    return out


def token_rule_check_discipline(path: str, lexed: LexedFile,
                                original: str = "") -> list[Finding]:
    out = []
    out += _line_findings(path, lexed.code, R5_THROW_RE, "check-discipline",
                          "raw throw in src/ — use SFS_REQUIRE (precondition) "
                          "or SFS_CHECK (invariant) from base/check.hpp so "
                          "failures carry expression + location")
    out += _line_findings(path, lexed.code, R5_ASSERT_RE, "check-discipline",
                          "assert() compiles out in release builds — use "
                          "SFS_CHECK, which is always on by policy")
    return out


def token_rule_float_order(path: str, lexed: LexedFile,
                           original: str = "") -> list[Finding]:
    code = lexed.code
    if not (R3_SURFACE_RE.search(code)
            or R7_INCLUDE_SURFACE_RE.search(original)):
        return []
    out: list[Finding] = []
    out += _line_findings(
        path, code, R7_REDUCE_RE, "float-order",
        "std::reduce/transform_reduce leaves the FP reduction order "
        "unspecified — in an emitter TU that breaks byte-stable BENCH_JSON; "
        "use std::accumulate (left fold) over an ordered range")
    out += _line_findings(
        path, code, R7_EXEC_POLICY_RE, "float-order",
        "parallel/unsequenced execution policy in an emitter TU — "
        "scheduling-dependent accumulation order leaks into artifacts; "
        "fold per-slot results in index order instead (base/parallel.hpp)")
    unordered_vars = set(R3_DECL_RE.findall(code))
    for idx, line_text in enumerate(code.split("\n"), start=1):
        m = R7_ACCUMULATE_RE.search(line_text)
        if m and m.group(1) in unordered_vars:
            out.append(Finding(
                path, idx, "float-order",
                "std::accumulate over an unordered container — "
                "hash-iteration order makes the FP sum "
                "implementation-defined; accumulate a sorted copy"))
    return out


def _include_runs(lexed: LexedFile,
                  original: str) -> list[list[tuple[int, str]]]:
    """Contiguous runs of quoted #include lines as (1-based line, path),
    taken from the original text but gated on the lexed text so a
    commented-out include neither joins nor splits a run."""
    code_lines = lexed.code.split("\n")
    orig_lines = original.split("\n")
    runs: list[list[tuple[int, str]]] = []
    cur: list[tuple[int, str]] = []
    for idx, (cl, ol) in enumerate(zip(code_lines, orig_lines), start=1):
        m = R8_INCLUDE_RE.match(ol)
        if m and re.match(r'\s*#\s*include\s*"', cl):
            cur.append((idx, m.group(1)))
        else:
            if cur:
                runs.append(cur)
            cur = []
    if cur:
        runs.append(cur)
    return runs


def token_rule_layering(path: str, lexed: LexedFile,
                        original: str = "") -> list[Finding]:
    parts = path.split("/")
    own_rank = None
    if len(parts) >= 3 and parts[0] == "src" and parts[1] in LAYER_RANK:
        own_rank = LAYER_RANK[parts[1]]
    out: list[Finding] = []
    runs = _include_runs(lexed, original)
    for run in runs:
        # Upward includes: every offending line reports.
        for line_no, inc in run:
            top = inc.split("/")[0]
            if (own_rank is not None and top in LAYER_RANK
                    and LAYER_RANK[top] > own_rank):
                out.append(Finding(
                    path, line_no, "layering",
                    f"upward include: {parts[1]}/ (layer {own_rank}) must "
                    f"not include {top}/ (layer {LAYER_RANK[top]}) — the "
                    "DAG is base→rng→graph→gen→stats→search→sim→core; "
                    "move the shared code down a layer or invert the "
                    "dependency (docs/ANALYSIS.md)"))
        # Ordering: one report per unsorted run, at the first regression.
        for k in range(1, len(run)):
            if run[k][1] < run[k - 1][1]:
                out.append(Finding(
                    path, run[k][0], "layering",
                    f'unsorted include run: "{run[k][1]}" sorts before '
                    f'"{run[k - 1][1]}" — run sfs_lint --fix to restore '
                    "order"))
                break
    return out


TOKEN_RULE_FNS = {
    "rng-sources": token_rule_rng_sources,
    "raw-derive": token_rule_raw_derive,
    "unordered-emission": token_rule_unordered_emission,
    "check-discipline": token_rule_check_discipline,
    "float-order": token_rule_float_order,
    "layering": token_rule_layering,
}


# --------------------------------------------------------------------------
# R6: cross-TU rng-reachability (token call graph)
# --------------------------------------------------------------------------
#
# Roots are the experiment entry points — the `.run = fn` designated
# initializers of the sim::ExperimentSpec each experiment returns.  Function
# definitions and call edges are recovered from the lexed text: an
# identifier + balanced parens + optional trailer (const/noexcept/macro
# attributes/ctor-initializers) followed by `{` is a definition; every
# known-function identifier followed by `(` inside its brace-matched body
# is an edge.  A "draw" is a construction of rng::Rng or rng::Philox4x64.
# The draw is sanctioned when its enclosing function — or anything that
# function can reach — derives seeds through audited_stream_seed,
# audited_counter_seed, or a *.stream_seed() helper.  A violation is a draw in a
# root-reachable, unsanctioned function: an experiment path that seeds an
# engine outside the derivation discipline.
#
# This is a heuristic (token-level) analysis: same-name functions merge
# into one node, bodies include nested lambdas, and declarations-only TUs
# contribute nothing.  That is the right bias for a lint — merging only
# ever *adds* reachability, and false positives carry a reasoned
# SFS_LINT_ALLOW that documents why the seeding is sound.

R6_ROOT_RE = re.compile(r"\.run\s*=\s*&?([A-Za-z_]\w*)")
R6_DRAW_NAMED_RE = re.compile(
    r"\b(?:rng\s*::\s*)?(?:Rng|Philox4x64)\s+\w+\s*[({]")
R6_DRAW_TEMP_RE = re.compile(r"\b(?:rng\s*::\s*)?(?:Rng|Philox4x64)\s*\(")
R6_SANCTION_RE = re.compile(
    r"\baudited_(?:stream|counter)_seed\s*\(|\bstream_seed\s*\(")
R6_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
R6_NOT_FN = frozenset({
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "alignas", "decltype", "static_assert", "assert", "defined", "case",
    "new", "delete", "throw", "co_await", "co_return", "co_yield",
})
R6_FN_TRAILER_RE = re.compile(
    r"(?:\s*(?:const\b|noexcept\b(?:\s*\([^()]*\))?|override\b|final\b|"
    r"[A-Z_][A-Za-z0-9_]*\s*\([^()]*\)))*"
    r"(?:\s*->\s*[^{;]+?)?(?:\s*:[^{;]*)?\s*\{")


@dataclass
class FnDef:
    name: str
    path: str
    line: int
    body: str  # lexed body text including the braces


def _match_forward(code: str, i: int, open_ch: str, close_ch: str) -> int:
    """Index of the close matching the open at code[i], or -1."""
    depth = 0
    n = len(code)
    while i < n:
        c = code[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return -1


def extract_functions(path: str, lexed: LexedFile) -> list[FnDef]:
    code = lexed.code
    fns: list[FnDef] = []
    for m in re.finditer(r"\b([A-Za-z_]\w*)\s*\(", code):
        name = m.group(1)
        if name in R6_NOT_FN:
            continue
        close = _match_forward(code, m.end() - 1, "(", ")")
        if close == -1:
            continue
        tm = R6_FN_TRAILER_RE.match(code, close + 1)
        if not tm or not tm.group(0).rstrip().endswith("{"):
            continue
        body_open = tm.end() - 1
        body_close = _match_forward(code, body_open, "{", "}")
        if body_close == -1:
            continue
        fns.append(FnDef(name, path,
                         code.count("\n", 0, m.start()) + 1,
                         code[body_open:body_close + 1]))
    return fns


def rng_reachability_findings(
        lexed_map: dict[str, LexedFile],
        graph_extra: dict[str, LexedFile] | None = None) -> list[Finding]:
    """R6 over the corpus.  `graph_extra` extends the call graph (e.g. the
    TUs of compile_commands.json) without adding reportable files."""
    whole: dict[str, LexedFile] = dict(graph_extra or {})
    whole.update(lexed_map)

    # name -> merged node
    callees: dict[str, set[str]] = {}
    sanctioned: dict[str, bool] = {}
    draws: dict[str, list[tuple[str, int]]] = {}
    roots: set[str] = set()

    all_fns: list[FnDef] = []
    for path, lexed in whole.items():
        all_fns.extend(extract_functions(path, lexed))
        for m in R6_ROOT_RE.finditer(lexed.code):
            roots.add(m.group(1))
    known = {fn.name for fn in all_fns}

    rule = RULES["rng-reachability"]
    for fn in all_fns:
        node = callees.setdefault(fn.name, set())
        node.update(c for c in set(R6_CALL_RE.findall(fn.body))
                    if c in known and c != fn.name)
        sanctioned[fn.name] = (sanctioned.get(fn.name, False)
                               or bool(R6_SANCTION_RE.search(fn.body)))
        if not rule.in_scope(fn.path):
            continue
        for dm in list(R6_DRAW_NAMED_RE.finditer(fn.body)) + \
                list(R6_DRAW_TEMP_RE.finditer(fn.body)):
            line = fn.line + fn.body.count("\n", 0, dm.start())
            draws.setdefault(fn.name, []).append((fn.path, line))

    def closure(start: set[str]) -> set[str]:
        seen = set(start)
        stack = list(start)
        while stack:
            for nxt in callees.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    reachable = closure(roots & known)

    reverse: dict[str, set[str]] = {}
    for caller, outs in callees.items():
        if caller not in reachable:
            continue
        for callee in outs:
            reverse.setdefault(callee, set()).add(caller)

    def self_sanctioned(name: str) -> bool:
        """Sanction inside the function or anything it can call — the
        "derives its own seed (possibly via a helper)" case."""
        return any(sanctioned.get(n, False) for n in closure({name}))

    # Backward all-paths check: a draw in `name` is clean iff EVERY path
    # from a root to `name` traverses a sanctioned body — either `name`
    # seeds itself (self_sanctioned) or all of its root-reachable callers
    # are, recursively, path-sanctioned (they derived the seed they pass
    # down).  Cycle members are optimistically clean; the path into the
    # cycle still decides.
    memo: dict[str, bool] = {}

    def path_sanctioned(name: str, visiting: frozenset[str]) -> bool:
        if name in visiting:
            return True
        if name in memo:
            return memo[name]
        if self_sanctioned(name):
            result = True
        elif name in roots:
            result = False  # an experiment entry path with no sanction yet
        else:
            callers = [c for c in reverse.get(name, ()) if c in reachable]
            result = bool(callers) and all(
                path_sanctioned(c, visiting | {name}) for c in callers)
        memo[name] = result
        return result

    out: list[Finding] = []
    for name, sites in draws.items():
        if name not in reachable:
            continue
        if path_sanctioned(name, frozenset()):
            continue
        # De-duplicate sites (the named/temp regexes can overlap).
        for path, line in sorted(set(sites)):
            if path in lexed_map:  # report only inside the lint set
                out.append(Finding(
                    path, line, "rng-reachability",
                    f"'{name}' is reachable from an experiment run-fn "
                    "and constructs an RNG engine, but nothing on "
                    "the path derives its seed through audited_stream_seed "
                    "/ audited_counter_seed / stream_seed — replications "
                    "seeded this way can silently correlate (docs/PERF.md "
                    "seed discipline; docs/ANALYSIS.md R6)"))
    return out


# --------------------------------------------------------------------------
# Mechanical fixes (--fix): R5 assert rewrite, R8 include reorder
# --------------------------------------------------------------------------

def fix_include_order(path: str, text: str) -> tuple[str, int]:
    if not RULES["layering"].in_scope(path):
        return text, 0
    lexed = lex(text)
    lines = text.split("\n")
    fixes = 0
    for run in _include_runs(lexed, text):
        idxs = [ln - 1 for ln, _ in run]
        paths = [p for _, p in run]
        order = sorted(range(len(run)), key=lambda k: paths[k])
        if order != list(range(len(run))):
            originals = [lines[i] for i in idxs]
            for slot, k in zip(idxs, order):
                lines[slot] = originals[k]
            fixes += 1
    return "\n".join(lines), fixes


def _insert_check_include(lines: list[str]) -> list[str]:
    """Inserts #include "base/check.hpp" into the first quoted-include run
    (keeping it sorted), else after the last top-of-file angle include,
    else after #pragma once."""
    inc = '#include "base/check.hpp"'
    first_run_start = None
    for i, line in enumerate(lines):
        if R8_INCLUDE_RE.match(line):
            first_run_start = i
            break
    if first_run_start is not None:
        j = first_run_start
        while j < len(lines):
            m = R8_INCLUDE_RE.match(lines[j])
            if not m or m.group(1) > "base/check.hpp":
                break
            j += 1
        return lines[:j] + [inc] + lines[j:]
    last_angle = None
    for i, line in enumerate(lines):
        if re.match(r"\s*#\s*include\s*<", line):
            last_angle = i
    if last_angle is not None:
        return lines[:last_angle + 1] + ["", inc] + lines[last_angle + 1:]
    for i, line in enumerate(lines):
        if re.match(r"\s*#\s*pragma\s+once", line):
            return lines[:i + 1] + ["", inc] + lines[i + 1:]
    return [inc, ""] + lines


def fix_asserts(path: str, text: str) -> tuple[str, int]:
    if not RULES["check-discipline"].in_scope(path):
        return text, 0
    lexed = lex(text)
    code_lines = lexed.code.split("\n")
    lines = text.split("\n")
    fixes = 0
    for i, cl in enumerate(code_lines):
        if i >= len(lines) or not R5_ASSERT_RE.search(cl):
            continue
        m = re.match(r"^(\s*)assert\s*\((.*)\)\s*;(\s*//.*)?$", lines[i])
        if not m:
            continue  # multi-line / compound statements are not mechanical
        indent, expr, trail = m.group(1), m.group(2), m.group(3) or ""
        if expr.count("(") != expr.count(")"):
            continue
        msg = expr.replace("\\", "\\\\").replace('"', '\\"')
        lines[i] = f'{indent}SFS_CHECK({expr}, "{msg}");{trail}'
        fixes += 1
    if fixes and '#include "base/check.hpp"' not in text:
        lines = _insert_check_include(lines)
    return "\n".join(lines), fixes


def apply_fixes(path: str, text: str) -> tuple[str, int]:
    """All mechanical fixes for one file; idempotent by construction
    (asserted over the fixture corpus by --self-test)."""
    text, n1 = fix_asserts(path, text)
    text, n2 = fix_include_order(path, text)
    return text, n1 + n2


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def lint_corpus(corpus: dict[str, str],
                graph_extra: dict[str, str] | None = None) -> list[Finding]:
    """Lints a set of files together: per-file rules plus the cross-TU
    rules over the whole set.  Keys are repo-relative paths (which drive
    rule scoping); values are file contents."""
    lexed_map = {p: lex(t) for p, t in corpus.items()}
    allows_map: dict[str, list[Allow]] = {}
    all_findings: list[Finding] = []

    for path, lexed in lexed_map.items():
        allows, meta = parse_allows(lexed)
        for f in meta:
            f.path = path
        allows_map[path] = allows

        findings: list[Finding] = []
        for rule_name, rule in RULES.items():
            if rule_name in CORPUS_RULES or not rule.in_scope(path):
                continue
            findings.extend(
                TOKEN_RULE_FNS[rule_name](path, lexed, corpus[path]))
        findings = apply_allows(findings, allows)
        findings.extend(meta)
        all_findings.extend(findings)

    extra_lexed = ({p: lex(t) for p, t in graph_extra.items()}
                   if graph_extra else None)
    cross = rng_reachability_findings(lexed_map, extra_lexed)
    by_path: dict[str, list[Finding]] = {}
    for f in cross:
        by_path.setdefault(f.path, []).append(f)
    for path, findings in by_path.items():
        all_findings.extend(apply_allows(findings, allows_map.get(path, [])))

    all_findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return all_findings


def lint_text(path: str, text: str) -> list[Finding]:
    """Lints one file's contents under its repo-relative `path`; the file
    is its own cross-TU corpus (what --self-test fixtures rely on)."""
    return lint_corpus({path: text})


def collect_files(repo_root: Path, explicit: list[str]) -> list[str]:
    if explicit:
        out = []
        for raw in explicit:
            p = Path(raw)
            rel = p if not p.is_absolute() else p.relative_to(repo_root)
            out.append(rel.as_posix())
        return out
    files = []
    for d in SCAN_DIRS:
        base = repo_root / d
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            rel = p.relative_to(repo_root).as_posix()
            if p.suffix in SOURCE_SUFFIXES and not _in_dir(rel, FIXTURE_DIR):
                files.append(rel)
    return files


def load_compile_commands(repo_root: Path, cc_path: Path,
                          already: set[str]) -> dict[str, str] | None:
    """TUs listed in compile_commands.json (restricted to the repo, minus
    files already being linted) as extra call-graph corpus for R6."""
    try:
        entries = json.loads(cc_path.read_text())
    except Exception as exc:
        print(f"sfs_lint: cannot read {cc_path}: {exc}", file=sys.stderr)
        return None
    extra: dict[str, str] = {}
    root = repo_root.resolve()
    for entry in entries:
        f = Path(entry.get("file", ""))
        if not f.is_absolute():
            f = Path(entry.get("directory", ".")) / f
        try:
            rel = f.resolve().relative_to(root).as_posix()
        except ValueError:
            continue  # generated / out-of-repo TU
        if (rel in already or rel in extra or _in_dir(rel, FIXTURE_DIR)
                or not f.suffix in SOURCE_SUFFIXES):
            continue
        if f.is_file():
            extra[rel] = f.read_text(encoding="utf-8", errors="replace")
    return extra


def run_lint(repo_root: Path, files: list[str], as_json: bool,
             compile_commands: str | None = None) -> int:
    corpus: dict[str, str] = {}
    for rel in files:
        full = repo_root / rel
        if not full.is_file():
            print(f"sfs_lint: no such file: {rel}", file=sys.stderr)
            return 2
        text = full.read_text(encoding="utf-8", errors="replace")
        # Fixtures linted explicitly (the CI seeded-violation step does)
        # run under their declared virtual path, the same remapping the
        # self-test applies — rule scoping is path-based, and the point of
        # a fixture is the path it pretends to live at.
        if _in_dir(rel, FIXTURE_DIR):
            m = FIXTURE_PATH_RE.search(text)
            if m:
                rel = m.group(1)
        corpus[rel] = text

    graph_extra = None
    if compile_commands:
        graph_extra = load_compile_commands(
            repo_root, Path(compile_commands), set(corpus))
        if graph_extra is None:
            return 2

    all_findings = lint_corpus(corpus, graph_extra)

    if as_json:
        for f in all_findings:
            print(json.dumps({"path": f.path, "line": f.line, "rule": f.rule,
                              "message": f.message}))
    else:
        for f in all_findings:
            print(f.render())
    if all_findings:
        print(f"sfs_lint: {len(all_findings)} violation(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"sfs_lint: OK — {len(files)} file(s) clean")
    return 0


def run_fix(repo_root: Path, files: list[str]) -> int:
    fixed_files = 0
    total = 0
    for rel in files:
        full = repo_root / rel
        if not full.is_file():
            print(f"sfs_lint: no such file: {rel}", file=sys.stderr)
            return 2
        text = full.read_text(encoding="utf-8")
        new_text, n = apply_fixes(rel, text)
        if n:
            full.write_text(new_text, encoding="utf-8")
            fixed_files += 1
            total += n
            print(f"fixed {rel}: {n} mechanical fix(es)")
    print(f"sfs_lint --fix: {total} fix(es) in {fixed_files} file(s)")
    return 0


# --------------------------------------------------------------------------
# Self-test over the fixture corpus
# --------------------------------------------------------------------------

def parse_expectations(fixture: Path) -> list[tuple[int, str]]:
    """Sidecar `<fixture>.expect`: one `LINE RULE` pair per line; missing
    or empty sidecar means the fixture must lint clean."""
    sidecar = fixture.with_suffix(fixture.suffix + ".expect")
    if not sidecar.is_file():
        return []
    expected = []
    for raw in sidecar.read_text().splitlines():
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        line_s, rule = raw.split()
        expected.append((int(line_s), rule))
    return expected


def run_self_test(fixtures_dir: Path) -> int:
    if not fixtures_dir.is_dir():
        print(f"sfs_lint: fixture dir not found: {fixtures_dir}",
              file=sys.stderr)
        return 2

    fixtures = sorted(p for p in fixtures_dir.iterdir()
                      if p.suffix in SOURCE_SUFFIXES)
    if not fixtures:
        print(f"sfs_lint: no fixtures under {fixtures_dir}", file=sys.stderr)
        return 2

    failures = 0
    for fixture in fixtures:
        text = fixture.read_text(encoding="utf-8")
        m = FIXTURE_PATH_RE.search(text)
        if not m:
            print(f"FAIL {fixture.name}: missing "
                  "// SFS_LINT_FIXTURE_PATH: <virtual path> marker")
            failures += 1
            continue
        vpath = m.group(1)
        # Fixtures exercise scoping via their declared virtual path.
        got = {(f.line, f.rule) for f in lint_text(vpath, text)}
        want = set(parse_expectations(fixture))
        if got != want:
            failures += 1
            print(f"FAIL {fixture.name} (as {vpath}):")
            for line, rule in sorted(want - got):
                print(f"  missing expected {rule} at line {line}")
            for line, rule in sorted(got - want):
                print(f"  unexpected {rule} at line {line}")
            continue

        # --fix contract, pinned on every fixture: applying the mechanical
        # fixes twice must equal applying them once (idempotence), and a
        # fixture that advertises itself as fixable must come out clean
        # (and actually change) after one pass.
        fixed1, _ = apply_fixes(vpath, text)
        fixed2, _ = apply_fixes(vpath, fixed1)
        if fixed1 != fixed2:
            failures += 1
            print(f"FAIL {fixture.name}: --fix is not idempotent")
            continue
        if "fixable" in fixture.name:
            if fixed1 == text:
                failures += 1
                print(f"FAIL {fixture.name}: --fix changed nothing")
                continue
            residue = lint_text(vpath, fixed1)
            if residue:
                failures += 1
                print(f"FAIL {fixture.name}: findings survive --fix:")
                for f in residue:
                    print(f"  {f.render()}")
                continue

        verdict = "clean" if not want else f"{len(want)} expected hit(s)"
        print(f"ok   {fixture.name}: {verdict}")

    total = len(fixtures)
    if failures:
        print(f"sfs_lint self-test: {failures}/{total} fixture(s) FAILED")
        return 1
    print(f"sfs_lint self-test: {total}/{total} fixtures OK")
    return 0


# --------------------------------------------------------------------------

def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="sfs_lint.py",
        description="determinism & API-invariant lint for sfsearch "
                    "(docs/ANALYSIS.md)")
    parser.add_argument("--all", action="store_true",
                        help="lint every C++ file under "
                             + ", ".join(SCAN_DIRS))
    parser.add_argument("files", nargs="*",
                        help="specific files to lint (repo-relative)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSONL")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--self-test", metavar="FIXTURE_DIR",
                        help="run the fixture corpus and verify each rule "
                             "fires exactly where expected (also asserts "
                             "--fix idempotence)")
    parser.add_argument("--fix", action="store_true",
                        help="apply mechanical fixes in place (assert -> "
                             "SFS_CHECK, include reorder) instead of "
                             "reporting")
    parser.add_argument("--compile-commands", metavar="PATH", default=None,
                        help="compile_commands.json whose TUs extend the "
                             "cross-TU call graph (R6) beyond the linted "
                             "files")
    args = parser.parse_args(argv)

    repo_root = Path(args.root) if args.root else Path(__file__).resolve().parent.parent

    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.name:20} {rule.summary}")
        for name in META_RULES:
            print(f"{name:20} (meta) malformed/unreasoned SFS_LINT_ALLOW")
        return 0

    if args.self_test:
        return run_self_test(Path(args.self_test))

    if not args.all and not args.files:
        parser.print_usage(sys.stderr)
        print("sfs_lint: pass --all or explicit files", file=sys.stderr)
        return 2
    if args.all and args.files:
        print("sfs_lint: --all and explicit files are mutually exclusive",
              file=sys.stderr)
        return 2

    files = collect_files(repo_root, args.files)
    if args.fix:
        return run_fix(repo_root, files)
    return run_lint(repo_root, files, args.json, args.compile_commands)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
