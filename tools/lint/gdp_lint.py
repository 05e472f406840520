#!/usr/bin/env python3
"""gdp-lint — the repo-specific determinism and locking-discipline linter.

The engine's contract is that models, MEC decompositions, quantitative
intervals and campaign aggregates are bit-identical at every thread count.
Most ways to silently break that contract are invisible to the compiler and
only probabilistically visible to TSan or the differential tests. This
linter makes the repo's invariants *rules*, checked on every file of
src/ tests/ bench/ examples/ by the `static-analysis` CI job and
`./ci.sh lint`:

  wall-clock          No std::random_device / rand() / srand() / time() /
                      *_clock::now() in result-producing code. All trial
                      randomness derives from exp/seeding.hpp (the one
                      exempt file) so results are a pure function of the
                      campaign seed. src/gdp/obs/ is the one blessed clock
                      site: obs::Span / obs::Stopwatch implement the run
                      report's timing plane and timeline.* the per-worker
                      event rings, and every other wall-clock read is
                      either routed through them or suppressed with a
                      justification.
  obs-outside-span    No chrono clock TYPES (steady_clock / system_clock /
                      high_resolution_clock member state) outside
                      src/gdp/obs/ — hand-rolled stopwatches and event
                      buffers bypass the obs timing plane, so their
                      readings never reach the run report or the timeline
                      trace and tempt result-side use. Hold an obs::Span
                      (run report + timeline), use obs::Stopwatch for
                      time-driven harness behavior, or emit
                      timeline::instant / counter_sample events instead.
                      Lines that call ::now() are the wall-clock rule's
                      findings, not this rule's.
  unordered-iteration No range-for over an unordered_map/unordered_set
                      (or a `using` alias of one) — hash iteration
                      order is libstdc++-version- and pointer-dependent,
                      the classic silent killer of the index-ordered fold
                      contract. Sort into a canonical order first, or
                      suppress with a justification that no result bit can
                      depend on the order.
  raw-thread          No std::thread / std::jthread outside
                      gdp/common/pool.* — ad-hoc threads bypass the pool's
                      exception funnel and the park-at-index determinism
                      idiom. (std::thread::hardware_concurrency() is fine.)
  fp-parallel-accumulation
                      No compound assignment (+=, -=, *=, /=) to a
                      float/double declared OUTSIDE a parallel region
                      (parallel_for / run_workers bodies) — cross-thread
                      float accumulation is both a data race and, even when
                      atomic, order-dependent in the last ulp. Park partial
                      results at block or task indices and fold them in
                      index order.
  unannotated-mutex   Every mutex declared under src/ (std::mutex,
                      std::shared_mutex, common::Mutex) must be referenced
                      by a GDP_GUARDED_BY / GDP_PT_GUARDED_BY /
                      GDP_REQUIRES / GDP_ACQUIRE / GDP_RELEASE /
                      GDP_EXCLUDES annotation in the same file, so Clang's
                      -Wthread-safety (cmake -DGDP_THREAD_SAFETY=ON) has
                      something to check. A mutex that guards nothing
                      statically expressible needs a suppression saying
                      what it guards and why the attribute cannot.
  check-side-effects  GDP_CHECK / GDP_DCHECK / GDP_CHECK_MSG conditions
                      must be side-effect-free (no ++/--/assignment):
                      GDP_DCHECK compiles to an unevaluated sizeof in
                      release builds, so a side effect in the condition
                      makes debug and release behave differently.
  raw-mmap            No raw mmap/munmap/mremap/msync/madvise calls. Memory
                      mapping is I/O with failure modes (SIGBUS on a
                      truncated file, silent partial syncs) that bypass the
                      repo's refusal-over-wrong-answer contract unless the
                      mapping is fingerprint-verified. gdp/mdp/store/ is the
                      one blessed I/O site: its call sites are expected and
                      carry allow() suppressions stating the ownership story;
                      anywhere else, go through gdp::mdp::store instead.

Suppressions are per-rule and inline:

    code();  // gdp-lint: allow(rule-name) — justification
    // gdp-lint: allow(rule-name[, other-rule]) — justification
    next_line_is_covered();

A suppression comment covers its own line; when the line holds nothing but
the comment, it also covers the rest of the comment block plus the first
code line after it. There are no file- or directory-level
baselines: every violation in the tree is either fixed or carries a visible
justification at the site. The only paths skipped wholesale are build
trees and tests/lint_fixtures/ (this linter's own seeded-violation test
corpus, exercised by `ctest -L lint` via --self-test).

Exit status: 0 clean, 1 findings, 2 usage/self-test harness error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from dataclasses import dataclass

EXTS = {".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h", ".inl"}
SKIP_DIR_NAMES = {"lint_fixtures"}
SKIP_DIR_PREFIXES = ("build",)

# The one rule-level file exemption, part of the wall-clock rule's spec:
# all randomness must derive from here, so it is the definition, not a user.
WALL_CLOCK_EXEMPT = ("src/gdp/exp/seeding.hpp",)

# The one blessed clock directory: gdp::obs implements the timing plane
# (Span, the run report), so both clock rules skip it wholesale.
OBS_BLESSED = "gdp/obs/"

RULES = (
    "wall-clock",
    "obs-outside-span",
    "unordered-iteration",
    "raw-thread",
    "fp-parallel-accumulation",
    "unannotated-mutex",
    "check-side-effects",
    "raw-mmap",
)


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Source model: raw text for suppressions, code text (comments and string
# literals blanked, newlines kept) for every rule match.
# ---------------------------------------------------------------------------


def strip_comments_and_strings(text: str) -> str:
    """Returns text with comments, string and char literals replaced by
    spaces. Line structure is preserved exactly so offsets map 1:1."""
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block_comment"
                out.append("  ")
                i += 2
                continue
            m = re.match(r'R"([^(\s\\]{0,16})\(', text[i:]) if c == "R" else None
            if m:
                mode = "raw"
                raw_delim = ")" + m.group(1) + '"'
                out.append(" " * m.end())
                i += m.end()
                continue
            if c == '"':
                mode = "string"
                out.append(" ")
                i += 1
                continue
            # Char literal: require it to close within a few chars so we do
            # not mistake digit separators (1'000'000) for one.
            if c == "'" and re.match(r"'(\\.|[^'\\])'", text[i:]):
                m2 = re.match(r"'(\\.|[^'\\])'", text[i:])
                out.append(" " * m2.end())
                i += m2.end()
                continue
            out.append(c)
            i += 1
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif mode == "string":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                mode = "code"
                out.append(" ")
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif mode == "raw":
            if text.startswith(raw_delim, i):
                mode = "code"
                out.append(" " * len(raw_delim))
                i += len(raw_delim)
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


SUPPRESS_RE = re.compile(r"gdp-lint:\s*allow\(([^)]*)\)")


def suppressions(raw_lines: list[str], code_lines: list[str]) -> dict[int, set[str]]:
    """line (1-based) -> set of rule names suppressed there."""
    by_line: dict[int, set[str]] = {}
    for idx, raw in enumerate(raw_lines, start=1):
        m = SUPPRESS_RE.search(raw)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        unknown = rules - set(RULES)
        if unknown:
            # An allow() for a rule that does not exist is itself a finding:
            # it silently rots when rules are renamed.
            by_line.setdefault(-idx, set()).update(unknown)  # negative: error marker
            rules -= unknown
        by_line.setdefault(idx, set()).update(rules)
        # A suppression inside a comment block covers every remaining line of
        # the block and the first code line after it — so a justification can
        # span several comment lines without repeating the allow().
        if code_lines[idx - 1].strip() == "":
            j = idx + 1
            while j <= len(raw_lines):
                by_line.setdefault(j, set()).update(rules)
                if code_lines[j - 1].strip() != "":
                    break
                j += 1
    return by_line


def match_paren(text: str, open_idx: int) -> int:
    """Index just past the ')' matching text[open_idx] == '('; -1 if none."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def match_angle(text: str, open_idx: int) -> int:
    """Index just past the '>' matching text[open_idx] == '<'; -1 if none."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "<":
            depth += 1
        elif text[i] == ">":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

WALL_CLOCK_RE = re.compile(
    r"std::random_device|\brandom_device\b|\bsrand\s*\(|\brand\s*\(\s*\)"
    r"|::now\s*\(\s*\)|\bstd::time\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"
)


def rule_wall_clock(path: str, code_lines: list[str]) -> list[Finding]:
    norm = path.replace("\\", "/")
    if any(norm.endswith(x) for x in WALL_CLOCK_EXEMPT) or OBS_BLESSED in norm:
        return []
    found = []
    for idx, line in enumerate(code_lines, start=1):
        if WALL_CLOCK_RE.search(line):
            found.append(Finding(
                path, idx, "wall-clock",
                "nondeterministic time/randomness source; results must be a pure "
                "function of the seed (derive randomness via exp/seeding.hpp, "
                "time phases through obs::Span, or suppress with a justification "
                "that this is timing-only)"))
    return found


CLOCK_TYPE_RE = re.compile(r"\bchrono\s*::\s*(?:steady|system|high_resolution)_clock\b")


def rule_obs_outside_span(path: str, code_lines: list[str]) -> list[Finding]:
    norm = path.replace("\\", "/")
    if OBS_BLESSED in norm:
        return []
    found = []
    for idx, line in enumerate(code_lines, start=1):
        if "::now" in line:
            continue  # a live clock read is the wall-clock rule's finding
        if CLOCK_TYPE_RE.search(line):
            found.append(Finding(
                path, idx, "obs-outside-span",
                "hand-rolled stopwatch state (a chrono clock type) outside "
                "gdp/obs/: phase timing goes through obs::Span "
                "(run report + timeline trace) and "
                "time-driven behavior through obs::Stopwatch, so clock "
                "reads never leak into results — use those, or suppress "
                "with a justification"))
    return found


UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")
ALIAS_RE = re.compile(
    r"\b(?:using\s+(\w+)\s*=\s*[\w:]*unordered_(?:map|set|multimap|multiset)\s*<"
    r"|typedef\s+[\w:]*unordered_(?:map|set|multimap|multiset)\s*<)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(")


def unordered_names(code: str) -> set[str]:
    """Identifiers declared in this file with an unordered container type."""
    names: set[str] = set()
    alias_types: set[str] = set()
    for m in ALIAS_RE.finditer(code):
        if m.group(1):
            alias_types.add(m.group(1))
    for m in UNORDERED_DECL_RE.finditer(code):
        end = match_angle(code, m.end() - 1)
        if end < 0:
            continue
        dm = re.match(r"\s*&?\s*(\w+)\s*[;,={)\[]", code[end:])
        if dm:
            names.add(dm.group(1))
    for t in alias_types:
        for m in re.finditer(rf"\b{t}\b\s*&?\s+(\w+)\s*[;,={{)]", code):
            names.add(m.group(1))
    return names


def rule_unordered_iteration(path: str, code: str) -> list[Finding]:
    names = unordered_names(code)
    found = []
    for m in RANGE_FOR_RE.finditer(code):
        end = match_paren(code, code.index("(", m.start()))
        if end < 0:
            continue
        header = code[m.start():end]
        if ":" not in header:
            continue  # classic for loop
        range_expr = header.rsplit(":", 1)[1].strip(" )\n")
        # The identifier actually iterated: last member-access component.
        leaf = re.split(r"\.|->", range_expr)[-1].strip(" *&()")
        leaf = leaf.split("[")[0]
        if leaf in names or range_expr.strip(" *&") in names:
            found.append(Finding(
                path, line_of(code, m.start()), "unordered-iteration",
                f"range-for over unordered container '{range_expr}': hash order is "
                "not canonical and silently breaks the index-ordered fold / output "
                "contract — sort first, or suppress with a justification that no "
                "result bit depends on the order"))
    return found


RAW_THREAD_RE = re.compile(r"\bstd::j?thread\b(?!\s*::)")
RAW_THREAD_EXEMPT = ("gdp/common/pool.cpp", "gdp/common/pool.hpp")


def rule_raw_thread(path: str, code_lines: list[str]) -> list[Finding]:
    norm = path.replace("\\", "/")
    if any(norm.endswith(x) for x in RAW_THREAD_EXEMPT):
        return []
    found = []
    for idx, line in enumerate(code_lines, start=1):
        if RAW_THREAD_RE.search(line):
            found.append(Finding(
                path, idx, "raw-thread",
                "raw std::thread/std::jthread outside gdp/common/pool.*: ad-hoc "
                "threads bypass the pool's exception funnel and the park-at-index "
                "determinism idiom (use run_workers/parallel_for, or suppress with "
                "a justification)"))
    return found


PARALLEL_ENTRY_RE = re.compile(
    r"\b(?:common::)?(?:parallel_for|run_workers)\s*\(")
COMPOUND_ASSIGN_RE = re.compile(r"([A-Za-z_]\w*(?:(?:\.|->)\w+)*)\s*(\+=|-=|\*=|/=)")
FP_EXEMPT = ("gdp/common/pool.cpp",)  # implements the loop itself


def rule_fp_parallel_accumulation(path: str, code: str) -> list[Finding]:
    norm = path.replace("\\", "/")
    if any(norm.endswith(x) for x in FP_EXEMPT):
        return []
    found = []
    for m in PARALLEL_ENTRY_RE.finditer(code):
        open_idx = code.index("(", m.start())
        end = match_paren(code, open_idx)
        if end < 0:
            continue
        region = code[open_idx:end]
        region_base = open_idx
        for am in COMPOUND_ASSIGN_RE.finditer(region):
            lhs = am.group(1)
            # Indexed writes (x[i] += ...) park at an index; the disjointness
            # of indices is the caller's stated contract, not this rule's.
            after = region[am.end(1):am.end(1) + 1]
            if after == "[":
                continue
            leaf = re.split(r"\.|->", lhs)[-1]
            # Declared inside the region: a per-task local accumulator.
            if re.search(rf"\b(?:double|float|auto)\s*&?\s*{re.escape(leaf)}\b", region):
                continue
            # Only flag identifiers the file declares as float/double.
            if not re.search(rf"\b(?:double|float)\b[^;()\n]*\b{re.escape(leaf)}\b", code):
                continue
            found.append(Finding(
                path, line_of(code, region_base + am.start()), "fp-parallel-accumulation",
                f"floating-point accumulation into '{lhs}' captured by a parallel "
                "region: cross-thread float folds are order-dependent in the last "
                "ulp (and usually racy) — park per-block partials at their index "
                "and fold in index order"))
    return found


MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:gdp::)?(?:common::)?"
    r"(?:std::)?(Mutex|SharedMutex|mutex|shared_mutex)\s+(\w+)\s*[;{]", re.M)
ANNOTATION_REF_RE = (
    "GDP_GUARDED_BY", "GDP_PT_GUARDED_BY", "GDP_REQUIRES", "GDP_REQUIRES_SHARED",
    "GDP_ACQUIRE", "GDP_ACQUIRE_SHARED", "GDP_RELEASE", "GDP_RELEASE_SHARED",
    "GDP_TRY_ACQUIRE", "GDP_EXCLUDES", "GDP_RETURN_CAPABILITY")


def rule_unannotated_mutex(path: str, code: str, in_src: bool) -> list[Finding]:
    if not in_src:
        return []
    found = []
    for m in MUTEX_DECL_RE.finditer(code):
        name = m.group(2)
        referenced = any(
            re.search(rf"\b{macro}\s*\([^)]*\b{re.escape(name)}\b", code)
            for macro in ANNOTATION_REF_RE)
        if not referenced:
            found.append(Finding(
                path, line_of(code, m.start(1)), "unannotated-mutex",
                f"mutex '{name}' has no GDP_GUARDED_BY/GDP_REQUIRES/... client in "
                "this file, so clang -Wthread-safety checks nothing about it — "
                "annotate what it guards (gdp/common/thread_annotations.hpp), or "
                "suppress stating what it protects and why that is inexpressible"))
    return found


CHECK_CALL_RE = re.compile(r"\bGDP_D?CHECK(_MSG)?\s*\(")


def rule_check_side_effects(path: str, code: str) -> list[Finding]:
    found = []
    for m in CHECK_CALL_RE.finditer(code):
        open_idx = code.index("(", m.start())
        end = match_paren(code, open_idx)
        if end < 0:
            continue
        args = code[open_idx + 1:end - 1]
        if m.group(1):  # _MSG: only the condition (first top-level arg)
            depth = 0
            for i, c in enumerate(args):
                if c in "(<[{":
                    depth += 1
                elif c in ")>]}":
                    depth -= 1
                elif c == "," and depth == 0:
                    args = args[:i]
                    break
        cond = args
        effect = None
        if re.search(r"\+\+|--", cond):
            effect = "increment/decrement"
        else:
            scrubbed = re.sub(r"==|!=|<=|>=|<=>|\[\s*=\s*\]|\[\s*&\s*\]", "", cond)
            if re.search(r"[^=<>!+\-*/%&|^]=(?!=)", scrubbed) or re.search(
                    r"(\+|-|\*|/|%|&|\||\^|<<|>>)=", scrubbed):
                effect = "assignment"
        if effect:
            found.append(Finding(
                path, line_of(code, m.start()), "check-side-effects",
                f"{effect} inside a GDP_CHECK/GDP_DCHECK condition: GDP_DCHECK is "
                "an unevaluated sizeof in release builds, so the side effect "
                "happens in debug and vanishes in release — hoist it out"))
    return found


RAW_MMAP_RE = re.compile(r"(?:\B::\s*|\b)(?:mmap|munmap|mremap|msync|madvise)\s*\(")
# The blessed I/O site: raw-mmap findings here are expected and must carry
# an inline allow() justifying the mapping's ownership/teardown story.
MMAP_BLESSED = "gdp/mdp/store/"


def rule_raw_mmap(path: str, code_lines: list[str]) -> list[Finding]:
    norm = path.replace("\\", "/")
    blessed = MMAP_BLESSED in norm
    found = []
    for idx, line in enumerate(code_lines, start=1):
        if RAW_MMAP_RE.search(line):
            if blessed:
                msg = ("mmap-family call in the store (the blessed I/O site): still "
                       "suppress with a justification stating who owns the mapping "
                       "and how it is verified/unmapped")
            else:
                msg = ("raw mmap-family call outside gdp/mdp/store/: memory-mapped "
                       "I/O without fingerprint verification can return silently "
                       "corrupt bytes — go through gdp::mdp::store, or suppress "
                       "with a justification")
            found.append(Finding(path, idx, "raw-mmap", msg))
    return found


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def lint_file(path: pathlib.Path, in_src: bool | None = None) -> list[Finding]:
    raw = path.read_text(encoding="utf-8", errors="replace")
    code = strip_comments_and_strings(raw)
    raw_lines = raw.splitlines()
    code_lines = code.splitlines()
    norm = str(path).replace("\\", "/")
    if in_src is None:
        in_src = "/src/" in norm or norm.startswith("src/")

    findings: list[Finding] = []
    findings += rule_wall_clock(str(path), code_lines)
    findings += rule_obs_outside_span(str(path), code_lines)
    findings += rule_unordered_iteration(str(path), code)
    findings += rule_raw_thread(str(path), code_lines)
    findings += rule_fp_parallel_accumulation(str(path), code)
    findings += rule_unannotated_mutex(str(path), code, in_src)
    findings += rule_check_side_effects(str(path), code)
    findings += rule_raw_mmap(str(path), code_lines)

    allowed = suppressions(raw_lines, code_lines)
    bad_suppressions = [
        Finding(str(path), -k, "suppression",
                f"gdp-lint: allow() names unknown rule(s) {sorted(v)}")
        for k, v in allowed.items() if k < 0]
    findings = [f for f in findings if f.rule not in allowed.get(f.line, set())]
    return findings + bad_suppressions


def collect(paths: list[pathlib.Path]) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for p in paths:
        if p.is_file():
            if p.suffix in EXTS:
                files.append(p)
            continue
        for f in sorted(p.rglob("*")):
            if f.suffix not in EXTS or not f.is_file():
                continue
            parts = f.relative_to(p).parts
            if any(d in SKIP_DIR_NAMES or d.startswith(SKIP_DIR_PREFIXES)
                   for d in parts[:-1]):
                continue
            files.append(f)
    return files


def self_test(fixtures: pathlib.Path) -> int:
    """Every <rule>.bad*.cpp must be flagged with exactly that rule; every
    <rule>.good*.cpp must be clean. Fixture files are linted as if under
    src/ so the src-scoped rules are exercised too."""
    failures = 0
    cases = sorted(fixtures.glob("*.cpp"))
    if not cases:
        print(f"self-test: no fixtures found under {fixtures}", file=sys.stderr)
        return 2
    seen_rules: set[str] = set()
    for case in cases:
        m = re.match(r"(?P<rule>[\w-]+)\.(?P<kind>bad|good)", case.name)
        if not m:
            print(f"self-test: unrecognized fixture name {case.name} "
                  "(want <rule>.bad*.cpp / <rule>.good*.cpp)", file=sys.stderr)
            failures += 1
            continue
        rule, kind = m.group("rule"), m.group("kind")
        if rule not in RULES:
            print(f"self-test: {case.name} names unknown rule '{rule}'", file=sys.stderr)
            failures += 1
            continue
        seen_rules.add(rule)
        findings = lint_file(case, in_src=True)
        if kind == "bad":
            hit = [f for f in findings if f.rule == rule]
            stray = [f for f in findings if f.rule != rule]
            if not hit:
                print(f"self-test FAIL: {case.name} produced no '{rule}' finding")
                failures += 1
            if stray:
                print(f"self-test FAIL: {case.name} produced stray findings:")
                for f in stray:
                    print(f"  {f.render()}")
                failures += 1
        else:
            if findings:
                print(f"self-test FAIL: {case.name} should be clean but produced:")
                for f in findings:
                    print(f"  {f.render()}")
                failures += 1
    missing = set(RULES) - seen_rules
    if missing:
        print(f"self-test FAIL: no fixtures for rule(s): {sorted(missing)}")
        failures += 1
    total = len(cases)
    if failures == 0:
        print(f"self-test OK: {total} fixtures, all {len(RULES)} rules covered")
        return 0
    print(f"self-test: {failures} failure(s) across {total} fixtures")
    return 2


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="gdp-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", type=pathlib.Path,
                    help="files or directories to lint")
    ap.add_argument("--self-test", type=pathlib.Path, metavar="FIXTURES_DIR",
                    help="run the fixture corpus instead of linting paths")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test(args.self_test)
    if not args.paths:
        ap.error("nothing to lint: pass paths or --self-test")

    files = collect(args.paths)
    findings: list[Finding] = []
    for f in files:
        findings.extend(lint_file(f))
    for f in sorted(findings, key=lambda x: (x.path, x.line)):
        print(f.render())
    print(f"gdp-lint: {len(files)} files, {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
