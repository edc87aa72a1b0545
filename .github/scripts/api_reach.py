#!/usr/bin/env python3
"""Fail on `pub` items and fields that need not be public.

rustc's `dead_code` lint treats every `pub` item of a library as used,
and `unreachable_pub` (warned in every crate) only asks whether an item
can be reached, not whether anyone reaches it. So this scan holds the
Rust under `crates/*/src` and `src` to two rules rustc cannot check:

1. Crate reach. A `pub` item (`fn`, `struct`, `enum`, `const`, `trait`,
   `type`, `static`, `mod`) or `pub` field stays `pub` only if a file
   outside its crate names it (another crate, `src/`, `tests/`,
   `crates/*/tests`, `examples/`, `benchmark/src`), or the `pub`
   signature of another item of its crate does (a type callers reach
   through a return value or a field), or a `$crate::` path in one of
   its macros does (named wherever the macro expands). Otherwise only
   its own crate uses it: make it `pub(crate)` or less, and `dead_code`
   watches it.
2. Live reach. A `pub` item other than a module must be reached by
   code outside tests: a `pub fn` where it is called or named by path
   (`name(`, `name::<`, `::name`), any other item by any occurrence of
   its name beyond its own declarations, in the declaring sources plus
   `examples/` and `benchmark/src`, each stripped of `#[cfg(test)]`
   items and `pub use` re-exports.

Every file is first stripped of comments and of the contents of string
and char literals (a word in a message is no caller). A name flagged by
either rule must go, be demoted, or be listed with its reason in
`.github/api-reach-allow.txt` (`name: reason`, one per line); a listed
crate path (`crates/x: reason`) is exempt from rule 1. A flagged name
has no such reference, so there are no false positives; a name shared
with another item can hide one.
"""
import collections
import glob
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
ALLOW = ROOT / ".github" / "api-reach-allow.txt"
KINDS = r"(fn|struct|enum|const|trait|type|static|mod)"
DECL = re.compile(r"^\s*pub\s+(?:const\s+|unsafe\s+)*" + KINDS + r"\s+([A-Za-z_]\w*)", re.M)
FIELD = re.compile(r"^\s*pub\s+([a-z_]\w*)\s*:", re.M)
# What a caller reaches through an item, its own name left out: a
# `pub fn` up to its body, a `pub` field's type, a `pub type`, `const` or
# `static` up to its end.
SIGNATURE = re.compile(
    r"^\s*pub\s+(?:(?:const\s+|unsafe\s+)*fn\s+\w+([^{;]*)"
    r"|[a-z_]\w*\s*:([^\n]*)|(?:type|const|static)\s+\w+([^;]*))",
    re.M,
)
# An exported macro's `$crate::` path is named wherever it expands.
MACRO_PATH = re.compile(r"\$crate(?:::\w+)+")
# A function is reached where it is called or named by path: `name(`,
# `name::<` or `::name`. A same-named field or word is no caller, and a
# declaration (`fn name`) is cut before the scan.
FN_DECL = re.compile(r"\bfn\s+[A-Za-z_]\w*")
FN_REACH = re.compile(r"\b([A-Za-z_]\w*)\s*(?:\(|::<)|::\s*([A-Za-z_]\w*)")
WORD = re.compile(r"[A-Za-z_]\w*")
# Scanned left to right over the whole file, so a "//" inside a string is
# no comment, a quote inside a comment opens no string, and a string may
# span lines. Line breaks inside a blanked token are kept.
TOKEN = re.compile(
    r"""'(?:[^'\\\n]|\\[^'\n]{1,10})'"""  # a char literal
    r"|//[^\n]*"  # a comment
    r'|\bb?r(#*)"[\s\S]*?"\1'  # a raw string
    r'|"(?:[^"\\]|\\[\s\S])*"'  # a string
)
CFG_TEST = re.compile(r"#\[cfg\(test\)\]\s*(?:#\[[^\]]*\]\s*)*")


def blank(token):
    # A string keeps its quotes; a comment or a char literal goes.
    keep = '""' if token.group(0)[0] in 'br"' else ""
    return keep + "\n" * token.group(0).count("\n")


def strip_tests(text):
    """Drops every `#[cfg(test)]` item: up to its `;`, or its braces."""
    out, at = [], 0
    for m in CFG_TEST.finditer(text):
        if m.start() < at:
            continue
        out.append(text[at : m.start()])
        end, depth = m.end(), 0
        while depth or text[end] not in "{;":
            depth += {"(": 1, "[": 1, ")": -1, "]": -1}.get(text[end], 0)
            end += 1
        while True:
            depth += {"{": 1, "}": -1}.get(text[end], 0)
            end += 1
            if depth == 0 and text[end - 1] in "};":
                break
        out.append("\n" * text.count("\n", m.start(), end))
        at = end
    return "".join(out) + text[at:]


def crate_of(path):
    """The library a source file belongs to, or None for anything else."""
    parts = path.relative_to(ROOT).parts
    if parts[0] == "crates" and parts[2] == "src" and parts[3] != "bin":
        return "/".join(parts[:2])
    if parts[0] == "src" and parts[1] != "bin":
        return "src"
    return None


def sources(*patterns):
    return [
        pathlib.Path(hit)
        for pattern in patterns
        for hit in sorted(glob.glob(str(ROOT / pattern), recursive=True))
    ]


def read_allow():
    allowed = {}
    for n, line in enumerate(ALLOW.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        name, _, reason = line.partition(":")
        if not reason.strip():
            sys.exit(f"{ALLOW.name}:{n}: `{name}` has no reason")
        allowed[name.strip()] = reason.strip()
    return allowed


def main():
    declaring = sources("crates/*/src/**/*.rs", "src/**/*.rs")
    callers = sources("examples/**/*.rs", "benchmark/src/**/*.rs")
    outside = sources("tests/**/*.rs", "crates/*/tests/**/*.rs")
    stripped = {p: TOKEN.sub(blank, p.read_text()) for p in declaring + callers + outside}
    allowed = read_allow()
    flagged = collections.defaultdict(set)

    # Rule 1: crate reach.
    words = {p: collections.Counter(WORD.findall(t)) for p, t in stripped.items()}
    total = sum(words.values(), collections.Counter())
    by_crate = collections.defaultdict(collections.Counter)
    signatures = collections.defaultdict(collections.Counter)
    for path in declaring:
        crate = crate_of(path)
        if crate:
            by_crate[crate] += words[path]
            live = strip_tests(stripped[path])
            for sig in SIGNATURE.finditer(live):
                signatures[crate].update(WORD.findall("".join(filter(None, sig.groups()))))
            signatures[crate].update(WORD.findall(" ".join(MACRO_PATH.findall(live))))
    for path in declaring:
        crate = crate_of(path)
        if not crate or crate in allowed:
            continue
        live = strip_tests(stripped[path])
        named = [m.group(2) for m in DECL.finditer(live)] + FIELD.findall(live)
        for name in named:
            if total[name] == by_crate[crate][name] and not signatures[crate][name]:
                flagged[name].add(f"{path.relative_to(ROOT)}: only its crate names it")

    # Rule 2: live reach.
    declared = collections.defaultdict(list)
    functions = set()
    live_words = collections.Counter()
    calls = collections.Counter()
    for path in declaring + callers:
        text = re.sub(r"\bpub use [^;]*;", "", strip_tests(stripped[path]))
        live_words.update(WORD.findall(text))
        calls.update(a or b for a, b in FN_REACH.findall(FN_DECL.sub("fn", text)))
        if path in declaring:
            for kind, name in DECL.findall(text):
                if kind != "mod":
                    declared[name].append(str(path.relative_to(ROOT)))
                if kind == "fn":
                    functions.add(name)
    for name, files in declared.items():
        if calls[name] == 0 if name in functions else live_words[name] == len(files):
            flagged[name].add(f"{', '.join(files)}: no code outside tests reaches it")

    failed = False
    for name in sorted(flagged.keys() - allowed.keys()):
        for why in sorted(flagged[name]):
            print(f"unreached: {name} ({why})")
        failed = True
    exempt = {name for name in allowed if "/" in name}
    for name in sorted(allowed.keys() - flagged.keys() - exempt):
        print(f"stale allowlist entry: {name} (now referenced, or gone)")
        failed = True
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
