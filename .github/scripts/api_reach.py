#!/usr/bin/env python3
"""Fail on public items that nothing outside a test reaches.

Every `pub fn|struct|enum|const|trait|type|static` name declared under
`crates/*/src` and `src` is looked up in those same sources plus
`examples/` and `benchmark/src`, each file cut at its first
`#[cfg(test)]` and stripped of `pub use` re-exports, of the contents of
string literals, including those that span lines through a backslash
continuation (a word in a chart title or a message is no caller), and of
`//` comments. A `pub fn` is reached only where it is called or named by
path (`name(`, `name::<`, `::name`); any other item by any occurrence
of its name beyond its own declarations.
An unreached name must either go or be listed, with its reason, in
`.github/api-reach-allow.txt` (`name: reason`, one per line). A flagged
name has no such reference in code, so the check has no false
positives; it can miss an item that shares its name with a live one.
"""
import collections
import glob
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
ALLOW = ROOT / ".github" / "api-reach-allow.txt"
DECL = re.compile(
    r"\bpub\s+(?:const\s+|unsafe\s+)*(fn|struct|enum|const|trait|type|static)\s+([A-Za-z_]\w*)"
)
# A function is reached where it is called or named by path: `name(`,
# `name::<` or `::name`. A same-named field or word is no caller, and a
# declaration (`fn name`) is cut before the scan.
FN_DECL = re.compile(r"\bfn\s+[A-Za-z_]\w*")
FN_REACH = re.compile(r"\b([A-Za-z_]\w*)\s*(?:\(|::<)|::\s*([A-Za-z_]\w*)")
# Scanned left to right over the whole file, so a "//" inside a string is
# no comment, a quote inside a comment opens no string, and a string may
# span lines.
TOKEN = re.compile(
    r"""'\\?"'"""  # the quote char literal
    r"|//[^\n]*"  # a comment
    r'|\bb?r(#*)"[\s\S]*?"\1'  # a raw string
    r'|"(?:[^"\\]|\\[\s\S])*"'  # a string
)


def blank(token):
    # A string keeps its quotes; a comment or a quote char literal goes.
    return '""' if token.group(0)[0] in 'br"' else ""


def live_text(path):
    text = path.read_text().split("#[cfg(test)]")[0]
    text = re.sub(r"\bpub use [^;]*;", "", text)
    return TOKEN.sub(blank, text)


def sources(*patterns):
    return [
        pathlib.Path(hit)
        for pattern in patterns
        for hit in sorted(glob.glob(str(ROOT / pattern), recursive=True))
    ]


def main():
    declaring = sources("crates/*/src/**/*.rs", "src/**/*.rs")
    callers = sources("examples/**/*.rs", "benchmark/src/**/*.rs")
    declared = collections.defaultdict(list)
    functions = set()
    words = collections.Counter()
    calls = collections.Counter()
    for path in declaring + callers:
        text = live_text(path)
        words.update(re.findall(r"[A-Za-z_]\w*", text))
        calls.update(a or b for a, b in FN_REACH.findall(FN_DECL.sub("fn", text)))
        if path in declaring:
            for kind, name in DECL.findall(text):
                declared[name].append(str(path.relative_to(ROOT)))
                if kind == "fn":
                    functions.add(name)

    allowed = {}
    for n, line in enumerate(ALLOW.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        name, _, reason = line.partition(":")
        if not reason.strip():
            sys.exit(f"{ALLOW.name}:{n}: `{name}` has no reason")
        allowed[name.strip()] = reason.strip()

    unreached = {
        n: f
        for n, f in declared.items()
        if (calls[n] == 0 if n in functions else words[n] == len(f))
    }
    failed = False
    for name in sorted(unreached.keys() - allowed.keys()):
        print(f"unreached: {name} ({', '.join(unreached[name])})")
        failed = True
    for name in sorted(allowed.keys() - unreached.keys()):
        print(f"stale allowlist entry: {name} (now referenced, or gone)")
        failed = True
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
