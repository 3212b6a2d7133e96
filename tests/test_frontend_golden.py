"""Golden frontend output: token streams and ASTs, positions included.

``tests/golden/frontend.json`` holds one digest of the token stream and
one of the AST for every source a ``split`` pass hands the frontend:

* the five corpora (rendered at a small scale), their exported open
  programs and every fragment body and result in their manifests;
* ``examples/programs/*.mj`` and the same manifest sources for them;
* a fixed set of generated programs (the grammar ``tests/genprograms.py``
  draws from, with its sizing, over fixed seeds);
* a fixed set of short hostile strings, where the digest also covers
  every ``LexError``/``ParseError`` message, line and column.

A lexer or parser change that keeps these digests keeps every token
(kind, text, value, line, column), every AST node with its position and
every diagnostic.  Regenerate the fixture with
``PYTHONPATH=src python tests/test_frontend_golden.py`` only when the
frontend's output changes on purpose.
"""

import hashlib
import json
import pathlib
import random
import sys

from repro.core import auto_split
from repro.core.deploy import export_split
from repro.fuzz.generate import RandomDraw, gen_program
from repro.lang import ast, check_program, parse_program, pretty
from repro.lang.errors import LangError
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_expression, parse_statements
from repro.workloads.corpora import CORPUS_BUILDERS, build_corpus

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from tests.genprograms import _CFG  # noqa: E402

GOLDEN = pathlib.Path(__file__).parent / "golden" / "frontend.json"

CORPUS_SCALE = 0.1
GENERATED_SEEDS = range(40)
HOSTILE_SEED = 1603
HOSTILE_COUNT = 3000
#: fragments of the language and of what lexes wrong, so short random
#: strings reach comments, exponents, operators and bad characters
HOSTILE_ALPHABET = [
    "/*", "*/", "//", "/", "*", ".5", "1e+", "1e", "2.", "E-", "0", "7",
    "x", "_", "while", "int", "(", ")", "{", "}", "[", "]", ";", ",",
    "=", "==", "!", "!=", "<", "<=", "&&", "||", "&", "|", "+", "-", "%",
    " ", "\t", "\n", "\r", "#", "٣", "é", "²", "@", '"',
]


def token_digest(source):
    """Digest of ``tokenize(source)``, or of the ``LexError`` it raises."""
    h = hashlib.sha256()
    try:
        for t in tokenize(source):
            h.update(("%s\x1f%s\x1f%r\x1f%d\x1f%d\n" % (
                t.kind, t.text, t.value, t.line, t.col)).encode())
    except LangError as exc:
        h.update(_error_line(exc))
    return h.hexdigest()


def _error_line(exc):
    return ("!%s\x1f%s\x1f%r\x1f%r\n" % (
        type(exc).__name__, exc.message, exc.line, exc.col)).encode()


def _dump(node, h):
    if isinstance(node, list):
        h.update(b"[")
        for item in node:
            _dump(item, h)
        h.update(b"]")
    elif isinstance(node, ast.Node):
        h.update(("(%s@%r:%r" % (type(node).__name__, node.line, node.col)).encode())
        for name in node.__dataclass_fields__:
            _dump(getattr(node, name), h)
        h.update(b")")
    else:
        h.update(("%s:%r;" % (type(node).__name__, node)).encode())


def ast_digest(parse, source):
    """Digest of ``parse(source)`` with every position, or of the error."""
    h = hashlib.sha256()
    try:
        _dump(parse(source), h)
    except LangError as exc:
        h.update(_error_line(exc))
    return h.hexdigest()


def _entry(pairs):
    """One digest pair over ``(parse, source)`` pairs, folded in order."""
    tokens, trees = hashlib.sha256(), hashlib.sha256()
    for parse, source in pairs:
        tokens.update(token_digest(source).encode())
        trees.update(ast_digest(parse, source).encode())
    return {"tokens": tokens.hexdigest(), "ast": trees.hexdigest()}


def _manifest_sources(program, checker):
    manifest = export_split(auto_split(program, checker))
    pieces = []
    for name in sorted(manifest["functions"]):
        for spec in manifest["functions"][name]["fragments"]:
            pieces.append((parse_statements, spec["body"]))
            if spec["result"] is not None:
                pieces.append((parse_expression, spec["result"]))
    return [(parse_program, manifest["open_program"])], pieces


def _hostile_strings():
    rng = random.Random(HOSTILE_SEED)
    return [
        "".join(rng.choice(HOSTILE_ALPHABET) for _ in range(rng.randint(0, 12)))
        for _ in range(HOSTILE_COUNT)
    ]


def compute():
    """Every golden entry, keyed by the source it digests."""
    out = {}

    def add_program(label, source):
        out[label] = _entry([(parse_program, source)])
        program = parse_program(source)
        opened, fragments = _manifest_sources(program, check_program(program))
        out[label + ":open"] = _entry(opened)
        out[label + ":fragments"] = _entry(fragments)

    for name in sorted(CORPUS_BUILDERS):
        add_program("corpus:" + name, pretty(build_corpus(name, CORPUS_SCALE).program))
    for path in sorted((ROOT / "examples" / "programs").glob("*.mj")):
        add_program("example:" + path.name, path.read_text())
    out["generated"] = _entry(
        (parse_program, pretty(gen_program(RandomDraw(seed), _CFG)))
        for seed in GENERATED_SEEDS
    )
    hostile = _hostile_strings()
    out["hostile:program"] = _entry((parse_program, s) for s in hostile)
    out["hostile:statements"] = _entry((parse_statements, s) for s in hostile)
    out["hostile:expression"] = _entry((parse_expression, s) for s in hostile)
    return out


def test_frontend_output_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    computed = compute()
    assert sorted(computed) == sorted(golden)
    assert [label for label in golden if computed[label] != golden[label]] == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print("wrote", GOLDEN)
