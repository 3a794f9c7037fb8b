#!/usr/bin/env python3
"""Keeps the tunnel's codecs and framing behind wire::Session.

Both tunnel ends (the RIS and the route server) frame data, keep the §4
template-codec history in lockstep and batch their sends through one
wire::Session (src/wire/session.h). This lint fails when code -- not
comments or string literals -- under src/ris/, src/routeserver/ or
src/core/ names the codec or framing primitives directly, which would
start a second copy of those rules.

Usage: scripts/lint_wire_boundary.py   (run from the repository root)
Prints path:line for each hit and exits 1; exits 0 when clean.
"""

import pathlib
import re
import sys

ROOTS = ("src/ris", "src/routeserver", "src/core")
NAMES = re.compile(
    r"\b(TemplateCompressor|TemplateDecompressor|PayloadCoding|"
    r"encode_message_into|encode_message|kFlagRecorded|kFlagCompressed)\b")
STRING = re.compile(r'"(?:\\.|[^"\\])*"')


def code_lines(text):
    """Yields (line number, code) with comments and string bodies removed."""
    in_block = False
    for number, line in enumerate(text.splitlines(), 1):
        rest = STRING.sub('""', line)
        code = ""
        while rest:
            if in_block:
                end = rest.find("*/")
                if end < 0:
                    break
                in_block, rest = False, rest[end + 2:]
                continue
            line_comment, block = rest.find("//"), rest.find("/*")
            if line_comment >= 0 and (block < 0 or line_comment < block):
                code += rest[:line_comment]
                break
            if block < 0:
                code += rest
                break
            code, in_block, rest = code + rest[:block], True, rest[block + 2:]
        yield number, code


def main():
    hits = []
    for root in ROOTS:
        for path in sorted(pathlib.Path(root).rglob("*")):
            if path.suffix not in (".h", ".cpp"):
                continue
            for number, code in code_lines(path.read_text()):
                match = NAMES.search(code)
                if match:
                    hits.append(f"{path}:{number}: names {match.group(1)}")
    if hits:
        print("\n".join(hits))
        print("the tunnel's codecs and framing belong behind wire::Session "
              "(src/wire/session.h)")
        return 1
    print("wire boundary OK: " + ", ".join(ROOTS) +
          " reach the codecs and framing only through wire::Session")
    return 0


if __name__ == "__main__":
    sys.exit(main())
