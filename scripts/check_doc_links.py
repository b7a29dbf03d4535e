#!/usr/bin/env python3
"""Dead-path check for the prose docs (ARCHITECTURE.md, README.md) and the
doc comments of the Rust sources.

The docs anchor their explanations to concrete repo paths
(`crates/core/src/dp_train.rs`, `tests/attack_parity.rs`, ...). A rename or
move silently strands those references; this script fails CI when it finds
one. Two kinds of references are checked:

1. relative markdown link targets — ``[text](path)`` where the target has
   no URL scheme, no leading ``#`` and no ``::`` (a rustdoc intra-doc link
   such as ``[run](crate::pipeline::run_pipeline)``); an in-page anchor
   suffix is stripped. Resolved against the checked file's own directory
   (standard markdown semantics, so docs in subdirectories link with
   ``../``);
2. backtick-quoted repo paths — `` `crates/...` `` tokens that start with a
   known top-level directory and contain a ``/``, and `` `NAME.md` ``
   tokens naming a root-level Markdown file. Tokens with glob or
   placeholder characters (``*``, ``<``, ``{``) are skipped, and a
   ``path:line`` suffix is stripped. Always resolved against the repo root
   (this script's parent directory), wherever the checked file lives;
3. backtick-quoted module paths — `` `tbnet_<crate>::<name>...` `` tokens
   whose ``crates/<crate>/src/lib.rs`` exists (a workspace crate). The
   reference resolves when ``crates/<crate>/src/<name>.rs`` or
   ``<name>/mod.rs`` exists, or when ``<name>`` appears on a non-comment
   line of that ``lib.rs`` (a re-export such as ``tbnet_tee::simulate_baseline``).
   Only the first segment after the crate is checked.

Usage:
    check_doc_links.py FILE [FILE ...]

Exit status: 0 = all references resolve, 1 = dangling reference, 2 = a
checked file itself is missing.
"""

from __future__ import annotations

import os
import re
import sys

# Top-level directories whose backtick-quoted mentions are treated as paths.
PATH_ROOTS = (
    "crates/",
    "tests/",
    "scripts/",
    "ci/",
    "src/",
    "examples/",
    "docs/",
    ".github/",
)

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BACKTICK = re.compile(r"`([^`\n]+)`")
ROOT_MD = re.compile(r"[\w.-]+\.md")
MODULE_PATH = re.compile(r"tbnet_(\w+)::(\w+)")


def candidate_paths(text: str) -> list[tuple[str, bool]]:
    """Extracts every checkable (path, is_repo_rooted) reference."""
    refs: set[tuple[str, bool]] = set()
    for target in MD_LINK.findall(text):
        if "://" in target or "::" in target or target.startswith(("#", "mailto:")):
            continue
        refs.add((target.split("#", 1)[0], False))
    for token in BACKTICK.findall(text):
        if ROOT_MD.fullmatch(token):
            refs.add((token, True))
            continue
        if not token.startswith(PATH_ROOTS) or "/" not in token:
            continue
        if any(ch in token for ch in "*<{ "):
            continue
        # Strip a `path:line` location suffix and trailing punctuation.
        refs.add((token.split(":", 1)[0].rstrip("/."), True))
    return sorted(ref for ref in refs if ref[0])


def module_refs(text: str) -> list[tuple[str, str, str]]:
    """Extracts every (token, crate, name) backticked module reference."""
    refs: set[tuple[str, str, str]] = set()
    for token in BACKTICK.findall(text):
        m = MODULE_PATH.match(token)
        if m:
            refs.add((token, m.group(1), m.group(2)))
    return sorted(refs)


def module_resolves(repo_root: str, crate: str, name: str) -> bool:
    """Whether `tbnet_<crate>::<name>` names a module file or a lib.rs item;
    tokens naming no workspace crate are not checked."""
    src = os.path.join(repo_root, "crates", crate, "src")
    lib = os.path.join(src, "lib.rs")
    if not os.path.exists(lib):
        return True
    if os.path.exists(os.path.join(src, f"{name}.rs")) or os.path.exists(
        os.path.join(src, name, "mod.rs")
    ):
        return True
    word = re.compile(rf"\b{re.escape(name)}\b")
    with open(lib, encoding="utf-8") as fh:
        return any(
            word.search(line) and not line.lstrip().startswith("//") for line in fh
        )


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    failures = 0
    for doc in sys.argv[1:]:
        try:
            with open(doc, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read {doc}: {exc}", file=sys.stderr)
            return 2
        doc_dir = os.path.dirname(os.path.abspath(doc))
        for ref, repo_rooted in candidate_paths(text):
            base = repo_root if repo_rooted else doc_dir
            if not os.path.exists(os.path.join(base, ref)):
                print(f"{doc}: dangling path reference `{ref}`")
                failures += 1
        for token, crate, name in module_refs(text):
            if not module_resolves(repo_root, crate, name):
                print(f"{doc}: dangling module reference `{token}`")
                failures += 1
    if failures:
        print(f"{failures} dangling reference(s)", file=sys.stderr)
        return 1
    print("all path references resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
