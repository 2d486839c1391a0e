#!/usr/bin/env python3
"""urank-specific invariant linter.

Enforces repo contracts that generic tools (clang-tidy, compiler warnings)
cannot see:

  include-guard    headers under src/ use the guard URANK_<PATH>_H_ derived
                   from their path relative to src/.
  precondition     every function whose header comment documents a
                   precondition ("Requires ..." / "Aborts if ...") contains a
                   URANK_CHECK/URANK_DCHECK in each of its definitions.
  probability-type probabilities are accumulated in double; the `float` type
                   is banned in src/.
  rng-discipline   no rand()/srand()/time()-seeded randomness; all entropy
                   flows through util/rng.h so runs are reproducible.
  no-cout          src/ is a library: no std::cout (diagnostics go through
                   util/check.h, I/O through io/).
  build-registration  every .cc under src/ is compiled into the library
                   (listed in src/CMakeLists.txt).
  metric-name      metrics registered in src/ follow the naming contract
                   urank_<layer>_<name>_<unit> (lower_snake, unit one of
                   total/bytes/us/count/ratio/info) so the Prometheus page
                   and the bench_runner snapshots stay greppable and
                   self-describing (see docs/OBSERVABILITY.md).
  engine-api       outside src/core/, queries go through the QueryEngine
                   (core/engine/query_engine.h); direct includes of the
                   per-semantics headers (core/semantics/*,
                   core/expected_rank_*.h, core/quantile_rank.h) from other
                   src/ subsystems or examples/ are flagged. Suppress only
                   where an example deliberately shows a paper algorithm
                   the engine does not route (A-ERank-Prune, which is
                   approximate), and name that algorithm in the comment.
  kernel-vectorize the hot DP kernel files must not hand-roll elementwise
                   array sweeps or indexed reductions inside for/while
                   bodies: those inner loops belong behind the dispatch
                   table in core/internal/vector_kernels.h so every kernel
                   picks up the SIMD fast paths. Loops that are genuinely
                   scalar (early-exit scans, permutation gathers, order-
                   sensitive accumulations) carry an allow comment stating
                   why.

The former kernel-alloc rule moved to the AST-accurate urank-analyzer
(tools/analyzer/, check `kernel-alloc`): the regex version could not see
multi-line declarations, type aliases or helper-hidden allocations.

A finding can be suppressed for one line with a trailing or preceding
comment `// urank-lint: allow(<rule>)`; use sparingly and justify inline.

Exit status: 0 when clean, 1 when any finding is reported, 2 on usage error.
"""

import argparse
import os
import re
import sys

PRECONDITION_RE = re.compile(r"\bRequires\b|\bAborts if\b")
CHECK_RE = re.compile(r"\bURANK_D?CHECK(_MSG|_PROB|_NORMALIZED)?\b")
ALLOW_RE = re.compile(r"//\s*urank-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# Function-like names that are never precondition carriers.
NAME_BLOCKLIST = {"if", "for", "while", "switch", "return", "sizeof",
                  "static_cast", "operator"}


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving offsets."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(c + " " * (j - i - 2) + (c if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def allowed_rules(lines, lineno):
    """Suppressions on the given 1-based line or the one above it."""
    rules = set()
    for ln in (lineno - 1, lineno - 2):
        if 0 <= ln < len(lines):
            m = ALLOW_RE.search(lines[ln])
            if m:
                rules.update(r.strip() for r in m.group(1).split(","))
    return rules


def iter_files(root, subdir, exts):
    base = os.path.join(root, subdir)
    for dirpath, _, names in os.walk(base):
        for name in sorted(names):
            if os.path.splitext(name)[1] in exts:
                yield os.path.join(dirpath, name)


def relpath(root, path):
    return os.path.relpath(path, root)


# --- include-guard ---------------------------------------------------------

def expected_guard(root, path):
    rel = os.path.relpath(path, os.path.join(root, "src"))
    stem = re.sub(r"\.h$", "", rel)
    return "URANK_" + re.sub(r"[/.]", "_", stem).upper() + "_H_"


def check_include_guards(root, findings):
    for path in iter_files(root, "src", {".h"}):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        guard = expected_guard(root, path)
        m = re.search(r"^#ifndef\s+(\S+)\s*$", text, re.MULTILINE)
        if not m or m.group(1) != guard:
            got = m.group(1) if m else "none"
            findings.append(Finding(
                relpath(root, path),
                text[: m.start()].count("\n") + 1 if m else 1,
                "include-guard",
                f"expected include guard {guard}, found {got}"))
            continue
        if not re.search(r"^#define\s+" + re.escape(guard) + r"\s*$",
                         text, re.MULTILINE):
            findings.append(Finding(relpath(root, path), 1, "include-guard",
                                    f"missing #define {guard}"))


# --- token bans ------------------------------------------------------------

BAN_RULES = (
    # (rule, regex, message)
    ("probability-type", re.compile(r"\bfloat\b"),
     "probabilities and scores must use double, not float"),
    ("rng-discipline", re.compile(r"\b(s?rand|time)\s*\("),
     "use util/rng.h (deterministic, seeded) instead of rand()/time()"),
    ("rng-discipline", re.compile(r"\bstd::random_device\b"),
     "non-deterministic entropy is banned; seed an urank::Rng explicitly"),
    ("no-cout", re.compile(r"\bstd::cout\b"),
     "src/ is a library: no stdout printing"),
)


def check_token_bans(root, findings):
    for path in iter_files(root, "src", {".h", ".cc"}):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        lines = text.split("\n")
        code = strip_comments_and_strings(text).split("\n")
        is_rng = relpath(root, path).replace(os.sep, "/") in (
            "src/util/rng.h", "src/util/rng.cc")
        for lineno, line in enumerate(code, start=1):
            for rule, rx, message in BAN_RULES:
                if rule == "rng-discipline" and is_rng:
                    continue
                if rx.search(line) and rule not in allowed_rules(lines, lineno):
                    findings.append(Finding(relpath(root, path), lineno,
                                            rule, message))


# --- engine-api ------------------------------------------------------------

SEMANTICS_INCLUDE_RE = re.compile(
    r'#include\s+"core/(semantics/[^"]+|expected_rank_attr\.h|'
    r'expected_rank_tuple\.h|quantile_rank\.h)"')


def check_engine_api(root, findings):
    """Per-semantics headers are core-internal: other subsystems and the
    examples query through core/engine/query_engine.h."""
    paths = []
    for path in iter_files(root, "src", {".h", ".cc"}):
        rel = relpath(root, path).replace(os.sep, "/")
        if not rel.startswith("src/core/"):
            paths.append(path)
    if os.path.isdir(os.path.join(root, "examples")):
        paths.extend(iter_files(root, "examples", {".h", ".cc", ".cpp"}))
    for path in sorted(paths):
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
        for lineno, line in enumerate(lines, start=1):
            m = SEMANTICS_INCLUDE_RE.search(line)
            if m and "engine-api" not in allowed_rules(lines, lineno):
                findings.append(Finding(
                    relpath(root, path), lineno, "engine-api",
                    f'direct include of per-semantics header "core/'
                    f'{m.group(1)}"; query through core/engine/'
                    f'query_engine.h instead'))


# --- precondition ----------------------------------------------------------

def declaration_name(decl):
    """Name of the function a declaration introduces, or None."""
    decl = decl.strip()
    if not decl or decl.startswith("#") or "operator" in decl:
        return None
    paren = decl.find("(")
    if paren <= 0:
        return None
    m = re.search(r"([A-Za-z_]\w*)\s*$", decl[:paren])
    if not m or m.group(1) in NAME_BLOCKLIST:
        return None
    return m.group(1)


def find_definitions(code, name):
    """Bodies of all definitions of `name` in comment-stripped code.

    A definition is the token `name(`, its matched parentheses, optional
    qualifiers (const/noexcept/initializer list/trailing return), then a
    brace-matched body.
    """
    bodies = []
    # The lookbehind rejects destructors (~Name), negations (!Name(...))
    # and calls nested directly in a condition (`if (Name(...)) {`), whose
    # trailing brace would otherwise read as a definition body.
    for m in re.finditer(r"(?<![~!(])\b" + re.escape(name) + r"\s*\(", code):
        i = m.end() - 1  # at '('
        depth = 0
        while i < len(code):
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if i >= len(code):
            continue
        j = i + 1
        # Skip qualifiers and constructor initializer lists up to '{' / ';'.
        while j < len(code) and code[j] not in "{;":
            if code[j] == "=":  # `= 0;`, `= default;`, assignment from call
                break
            j += 1
        if j >= len(code) or code[j] != "{":
            continue
        depth = 0
        k = j
        while k < len(code):
            if code[k] == "{":
                depth += 1
            elif code[k] == "}":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        bodies.append((code[: m.start()].count("\n") + 1, code[j:k + 1]))
    return bodies


def check_preconditions(root, findings):
    for path in iter_files(root, "src", {".h"}):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        lines = text.split("\n")
        sibling = re.sub(r"\.h$", ".cc", path)
        sources = [(path, strip_comments_and_strings(text))]
        if os.path.exists(sibling):
            with open(sibling, encoding="utf-8") as f:
                sources.append((sibling,
                                strip_comments_and_strings(f.read())))

        comment = []
        comment_documents_precondition = False
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if stripped.startswith("//"):
                comment.append(stripped)
                if PRECONDITION_RE.search(stripped):
                    comment_documents_precondition = True
                continue
            if comment_documents_precondition and stripped:
                name = declaration_name(stripped)
                if name and "precondition" not in allowed_rules(lines, lineno):
                    defs = []
                    for _, code in sources:
                        defs.extend(find_definitions(code, name))
                    if not defs:
                        findings.append(Finding(
                            relpath(root, path), lineno, "precondition",
                            f"{name}: documented precondition but no "
                            f"definition found to verify"))
                    else:
                        for def_line, body in defs:
                            if not CHECK_RE.search(body):
                                findings.append(Finding(
                                    relpath(root, path), lineno,
                                    "precondition",
                                    f"{name}: header documents a "
                                    f"precondition but the definition at "
                                    f"line {def_line} has no URANK_CHECK"))
            comment = []
            comment_documents_precondition = False


# --- kernel files ----------------------------------------------------------

# The per-tuple DP kernels: the files where an allocation inside a loop is
# an O(N) perf defect rather than a style preference. Extend the list when
# a new kernel file joins the hot path.
KERNEL_FILES = (
    "src/core/rank_distribution_tuple.cc",
    "src/core/rank_distribution_attr.cc",
    "src/core/quantile_rank.cc",
    "src/core/expected_rank_attr.cc",
    "src/core/expected_rank_tuple.cc",
    "src/core/semantics/semantics.cc",
    "src/core/semantics/u_kranks.cc",
    "src/util/poisson_binomial.cc",
)


def loop_body_spans(code):
    """Character spans of every brace-delimited for/while body in comment-
    stripped code. Single-statement loop bodies carry no declarations and
    are skipped."""
    spans = []
    for m in re.finditer(r"\b(for|while)\s*\(", code):
        i = m.end() - 1
        depth = 0
        while i < len(code):
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        j = i + 1
        while j < len(code) and code[j] in " \t\n\r":
            j += 1
        if j >= len(code) or code[j] != "{":
            continue
        depth = 0
        k = j
        while k < len(code):
            if code[k] == "{":
                depth += 1
            elif code[k] == "}":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        spans.append((j, k))
    return spans


# --- kernel-vectorize ------------------------------------------------------

# Raw inner-loop shapes over probability arrays that vector_kernels.h
# already covers:
#   * elementwise writes `a[i] op= ... b[j] ...` (scale/scale_add/convolve
#     territory), and
#   * indexed reductions `acc += ... v[i];` (sum/prefix territory).
# Matches are restricted to for/while bodies in KERNEL_FILES; loops that
# must stay scalar justify themselves with an allow(kernel-vectorize)
# comment.
KERNEL_VECTORIZE_RES = (
    re.compile(r"\[[^\];]*\]\s*[+\-*]?=\s*[^;]*\["),
    re.compile(r"\w+\s*\+=\s*[^;=]*\[[^\];]*\]\s*;"),
)


def check_kernel_vectorize(root, findings):
    for rel in KERNEL_FILES:
        path = os.path.join(root, rel)
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as f:
            text = f.read()
        lines = text.split("\n")
        code = strip_comments_and_strings(text)
        spans = loop_body_spans(code)
        flagged = set()
        for rx in KERNEL_VECTORIZE_RES:
            for m in rx.finditer(code):
                if not any(a < m.start() < b for a, b in spans):
                    continue
                lineno = code[:m.start()].count("\n") + 1
                if lineno in flagged:
                    continue
                if "kernel-vectorize" in allowed_rules(lines, lineno):
                    continue
                flagged.add(lineno)
                findings.append(Finding(
                    rel, lineno, "kernel-vectorize",
                    "raw inner loop over probability arrays; express it "
                    "against a core/internal/vector_kernels.h primitive, "
                    "or justify the scalar loop with an "
                    "allow(kernel-vectorize) comment"))


# --- metric-name -----------------------------------------------------------

# Registration sites look like `registry.counter("urank_engine_queries_total")`
# (see util/metrics.h). The literal is the wire name: it must spell out the
# owning layer and end in a recognised unit suffix.
METRIC_CALL_RE = re.compile(
    r"\b(?:counter|gauge|histogram)\s*\(\s*\"([^\"]*)\"")
METRIC_NAME_RE = re.compile(
    r"^urank_[a-z0-9]+(?:_[a-z0-9]+)+_(?:total|bytes|us|count|ratio|info)$")


def check_metric_names(root, findings):
    """Scans raw text (the names live inside string literals, which
    strip_comments_and_strings blanks out)."""
    for path in iter_files(root, "src", {".h", ".cc"}):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        lines = text.split("\n")
        for lineno, line in enumerate(lines, start=1):
            for m in METRIC_CALL_RE.finditer(line):
                name = m.group(1)
                if METRIC_NAME_RE.match(name):
                    continue
                if "metric-name" in allowed_rules(lines, lineno):
                    continue
                findings.append(Finding(
                    relpath(root, path), lineno, "metric-name",
                    f'metric name "{name}" does not match '
                    f"urank_<layer>_<name>_<unit> with unit in "
                    f"total/bytes/us/count/ratio/info"))


# --- build-registration ----------------------------------------------------

def check_build_registration(root, findings):
    cmake = os.path.join(root, "src", "CMakeLists.txt")
    with open(cmake, encoding="utf-8") as f:
        listed = f.read()
    for path in iter_files(root, "src", {".cc"}):
        rel = os.path.relpath(path, os.path.join(root, "src"))
        if rel.replace(os.sep, "/") not in listed:
            findings.append(Finding(
                relpath(root, path), 1, "build-registration",
                f"{rel} is not listed in src/CMakeLists.txt"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of tools/)")
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"urank_lint: no src/ under {root}", file=sys.stderr)
        return 2

    findings = []
    check_include_guards(root, findings)
    check_token_bans(root, findings)
    check_engine_api(root, findings)
    check_preconditions(root, findings)
    check_kernel_vectorize(root, findings)
    check_metric_names(root, findings)
    check_build_registration(root, findings)

    for finding in sorted(findings, key=lambda f: (f.path, f.line)):
        print(finding)
    if findings:
        print(f"urank_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("urank_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
