#!/usr/bin/env python3
"""Documentation hygiene checks, run by the CI docs job.

Failure modes that rot silently:

1. **Dead relative links** — ``[text](OTHER.md)`` in ``docs/*.md`` (and
   the top-level ``*.md``) pointing at files that do not exist, including
   broken anchors of the form ``FILE.md#section``.
2. **Stale metric names** — docs citing a ``repro_*`` metric that the
   declaration table (``METRICS`` in ``src/repro/obs/metrics.py``) does
   not declare any more (the metric names are a stable interface; see
   docs/OBSERVABILITY.md), and rows of the docs/OBSERVABILITY.md metric
   table whose Type or Labels column disagrees with the declaration.
3. **Stale CLI surface** — docs/OBSERVABILITY.md, docs/OPERATIONS.md or
   docs/CACHING.md citing an HTTP endpoint the exposition server does not route
   (``ROUTES`` in ``src/repro/obs/httpexpo.py``) or a ``--flag`` no
   ``add_argument`` in ``src/repro/cli.py`` defines; any doc invoking a
   ``repro <sub>`` subcommand no ``add_parser`` registers; any
   ``--engine X`` choice shown in a doc that the engine registry
   (``ENGINES`` in ``src/repro/runtime/__init__.py``) does not list.
4. **Hello drift** — the ``hello`` rows of the docs/PROTOCOL.md op table
   must name exactly the options of the server's hello table
   (``_HELLO_OPTIONS`` in ``src/repro/runtime/remote.py``).
5. **Dead file references** — ``docs/*.md``, README.md, DESIGN.md or
   EXPERIMENTS.md naming a script under ``tools/``, ``benchmarks/`` or
   ``perfbench/`` or a ``BENCH_*.json`` result file that does not exist,
   or invoking a ``python -m repro.bench`` experiment the runner table
   in ``src/repro/bench/__main__.py`` does not define.

Exit status 0 when clean, 1 with a findings listing otherwise.  No
dependencies beyond the standard library, so it runs anywhere::

    python tools/check_docs.py
"""

import importlib.util
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

#: [text](target) — excluding images and absolute URLs
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)#\s]+)(#[A-Za-z0-9_.-]*)?\)")
#: one row of the docs/OBSERVABILITY.md metric table:
#: | `name` | type | labels | meaning |
_METRIC_ROW = re.compile(
    r"^\| `(repro_[a-z0-9_]+)` \| ([a-z]+) \| ([^|]*) \|", re.MULTILINE)
#: backticked label names in a Labels cell ("—" when there are none)
_LABEL_NAME = re.compile(r"`([a-z_]+)`")
#: metric mentions in docs (prometheus names; histogram suffixes stripped)
_METRIC_USE = re.compile(r"\brepro_[a-z0-9_]+\b")
#: suffixes the prometheus exposition appends to histogram names
_EXPO_SUFFIXES = ("_bucket", "_sum", "_count")
#: backticked endpoint paths in docs (`/metrics`, `/healthz`, ...)
_ENDPOINT_USE = re.compile(r"`(/[a-z][a-z.]*)`")
#: route literals in the exposition server source
_ROUTE_DEF = re.compile(r'"(/[a-z][a-z.]*)"')
#: long-option mentions in docs
_FLAG_USE = re.compile(r"(--[a-z][a-z-]+)\b")
#: long options the CLI defines
_FLAG_DEF = re.compile(r'add_argument\(\s*\n?\s*"(--[a-z][a-z-]+)"')
#: subcommand mentions in docs: fenced ``python -m repro trace ...``
#: invocations and backticked `repro trace` references (a bare "repro"
#: in prose or a Python import never matches)
_SUBCOMMAND_USE = re.compile(r"(?:python -m repro|`repro) ([a-z][a-z0-9-]+)")
#: subcommands the CLI defines
_SUBCOMMAND_DEF = re.compile(r'add_parser\(\s*\n?\s*"([a-z][a-z0-9-]+)"')
#: engine names passed to --engine in docs
_ENGINE_USE = re.compile(r"--engine[ =]([a-z]+)")
#: the engine registry tuple in runtime/__init__.py
_ENGINE_DEF = re.compile(r"^ENGINES\s*=\s*\(([^)]*)\)", re.MULTILINE)
#: repo files docs name: scripts and committed result files, bare,
#: backticked or linked (a leading ../ is dropped)
_PATH_USE = re.compile(
    r"(?<![\w/.-])(?:\.\./)*((?:tools|benchmarks|perfbench)/[\w.-]+\.py"
    r"|BENCH_\w+\.json)")
#: experiment names in ``python -m repro.bench NAME...`` invocations
_BENCH_USE = re.compile(r"python -m repro\.bench((?: [a-z][a-z0-9]*)+)")
#: the runner table keys in bench/__main__.py
_BENCH_DEF = re.compile(r'^\s+"([a-z][a-z0-9]*)":\s', re.MULTILINE)
#: the hello rows of the docs/PROTOCOL.md op table:
#: | `{"op": "hello", "cache": C}` | ...
_HELLO_ROW = re.compile(r'^\| `\{"op": "hello", "([a-z_]+)"', re.MULTILINE)
#: the server's hello-option table in runtime/remote.py
_HELLO_DEF = re.compile(r"^\s+_HELLO_OPTIONS = \{([^}]*)\}", re.MULTILINE)
#: top-level docs that describe the repo as it is; the others record
#: history, plans or outside work and may name files that are gone
_CURRENT_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")


def _rel(path):
    try:
        return str(path.relative_to(REPO))
    except ValueError:
        return str(path)


def doc_files():
    files = sorted((REPO / "docs").glob("*.md"))
    files.extend(sorted(REPO.glob("*.md")))
    return files


def defined_metrics():
    """The declaration table, ``{name: MetricSpec}``.  ``metrics.py`` has
    no dependencies beyond the standard library, so it is loaded straight
    from its file, without importing the package."""
    path = REPO / "src/repro/obs/metrics.py"
    spec = importlib.util.spec_from_file_location("_declared_metrics", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.METRICS)


def check_links(path, text, errors):
    for match in _LINK.finditer(text):
        target, _anchor = match.group(1), match.group(2)
        if "://" in target or target.startswith("mailto:"):
            continue
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            errors.append(
                "%s: dead relative link -> %s" % (_rel(path), target)
            )


def check_metrics(path, text, known, errors):
    for name in sorted(set(_METRIC_USE.findall(text))):
        base = name
        for suffix in _EXPO_SUFFIXES:
            if base.endswith(suffix) and base[: -len(suffix)] in known:
                base = base[: -len(suffix)]
                break
        if base not in known:
            # brace-expansion shorthand: repro_cache_{hits,misses}_total
            # scans as the prefix "repro_cache_"; accept it when some
            # defined metric actually carries that prefix
            if base.endswith("_") and any(k.startswith(base) for k in known):
                continue
            errors.append(
                "%s: stale metric name %r (no M_* constant defines it)"
                % (_rel(path), name)
            )


def check_metric_table(path, text, declared, errors):
    """Every row of the metric table must carry its declared type and
    label names (in declaration order)."""
    for name, kind, labels in _METRIC_ROW.findall(text):
        spec = declared.get(name)
        if spec is None:
            continue  # check_metrics reports undeclared names
        if kind != spec.kind:
            errors.append("%s: %s is documented as a %s, declared as a %s"
                          % (_rel(path), name, kind, spec.kind))
        names = tuple(_LABEL_NAME.findall(labels))
        if names != tuple(spec.labels):
            errors.append(
                "%s: %s is documented with labels %s, declared with %s"
                % (_rel(path), name, list(names), list(spec.labels)))


def defined_routes():
    source = (REPO / "src/repro/obs/httpexpo.py").read_text(encoding="utf-8")
    return set(_ROUTE_DEF.findall(source))


def defined_flags():
    source = (REPO / "src/repro/cli.py").read_text(encoding="utf-8")
    return set(_FLAG_DEF.findall(source))


def defined_subcommands():
    source = (REPO / "src/repro/cli.py").read_text(encoding="utf-8")
    return set(_SUBCOMMAND_DEF.findall(source))


def defined_engines():
    source = (REPO / "src/repro/runtime/__init__.py").read_text(encoding="utf-8")
    match = _ENGINE_DEF.search(source)
    if match is None:
        return set()
    return set(re.findall(r'"([a-z]+)"', match.group(1)))


def defined_bench_experiments():
    source = (REPO / "src/repro/bench/__main__.py").read_text(encoding="utf-8")
    return set(_BENCH_DEF.findall(source))


def defined_hello_options():
    source = (REPO / "src/repro/runtime/remote.py").read_text(encoding="utf-8")
    match = _HELLO_DEF.search(source)
    if match is None:
        return set()
    return set(re.findall(r'"([a-z_]+)":', match.group(1)))


def check_hello_table(path, text, options, errors):
    """The op table must give every option of the server's hello table a
    row, and document no option the server does not handle."""
    documented = set(_HELLO_ROW.findall(text))
    for name in sorted(documented - options):
        errors.append(
            "%s: documents a hello option %r the server does not handle "
            "(not in _HELLO_OPTIONS)" % (_rel(path), name))
    for name in sorted(options - documented):
        errors.append(
            "%s: hello option %r has no row in the op table"
            % (_rel(path), name))


def check_paths(path, text, experiments, errors):
    """Every script or result file a doc names must exist, and every
    ``python -m repro.bench`` experiment it invokes must be defined."""
    for target in sorted(set(_PATH_USE.findall(text))):
        if not (REPO / target).exists():
            errors.append("%s: names a missing file %s" % (_rel(path), target))
    used = set()
    for names in _BENCH_USE.findall(text):
        used.update(names.split())
    for name in sorted(used - experiments):
        errors.append(
            "%s: unknown experiment 'python -m repro.bench %s' (not in the "
            "repro.bench runner table)" % (_rel(path), name)
        )


def check_engines(path, text, engines, errors):
    """Every ``--engine X`` a doc shows must name a registered engine."""
    for name in sorted(set(_ENGINE_USE.findall(text))):
        if name not in engines:
            errors.append(
                "%s: unknown --engine choice %r (not in the "
                "repro.runtime.ENGINES registry)" % (_rel(path), name)
            )


def check_subcommands(path, text, subcommands, errors):
    """Every ``repro <sub>`` invocation a doc shows must be a subcommand
    the CLI parser actually registers."""
    for name in sorted(set(_SUBCOMMAND_USE.findall(text))):
        if name not in subcommands:
            errors.append(
                "%s: unknown subcommand 'repro %s' (no add_parser defines it)"
                % (_rel(path), name)
            )


def check_cli_surface(path, text, routes, flags, errors, repro_lines_only=False):
    """The worked examples in docs/OBSERVABILITY.md and docs/TESTING.md
    name endpoints and CLI flags; both must exist in the source they
    document.  With ``repro_lines_only`` the flag check is restricted to
    lines invoking ``repro`` — TESTING.md also shows pytest/coverage
    flags this tool must not vet against our CLI."""
    for endpoint in sorted(set(_ENDPOINT_USE.findall(text))):
        if endpoint not in routes:
            errors.append(
                "%s: unknown exposition endpoint %r (not in httpexpo ROUTES)"
                % (_rel(path), endpoint)
            )
    flag_text = text
    if repro_lines_only:
        flag_text = "\n".join(
            line for line in text.splitlines() if "repro " in line
        )
    for flag in sorted(set(_FLAG_USE.findall(flag_text))):
        if flag not in flags:
            errors.append(
                "%s: unknown CLI flag %r (no add_argument defines it)"
                % (_rel(path), flag)
            )


def main():
    known = defined_metrics()
    if not known:
        print("check_docs: the METRICS declaration table in "
              "src/repro/obs/metrics.py is empty", file=sys.stderr)
        return 1
    routes = defined_routes()
    flags = defined_flags()
    subcommands = defined_subcommands()
    engines = defined_engines()
    experiments = defined_bench_experiments()
    hellos = defined_hello_options()
    if not (routes and flags and subcommands and engines and experiments
            and hellos):
        print("check_docs: found no routes/flags/subcommands/engines/"
              "experiments/hello options in src/ — the definition regexes "
              "are broken",
              file=sys.stderr)
        return 1
    errors = []
    for path in doc_files():
        text = path.read_text(encoding="utf-8")
        check_links(path, text, errors)
        check_metrics(path, text, known, errors)
        check_engines(path, text, engines, errors)
        if path.parent.name == "docs" or path.name in _CURRENT_DOCS:
            check_paths(path, text, experiments, errors)
        if path.name != "ROADMAP.md":  # the roadmap names future surface
            check_subcommands(path, text, subcommands, errors)
        if path.name == "OBSERVABILITY.md":
            check_metric_table(path, text, known, errors)
        if path.name == "PROTOCOL.md":
            check_hello_table(path, text, hellos, errors)
        if path.name in ("OBSERVABILITY.md", "OPERATIONS.md", "CACHING.md"):
            check_cli_surface(path, text, routes, flags, errors)
        elif path.name == "TESTING.md":
            check_cli_surface(path, text, routes, flags, errors,
                              repro_lines_only=True)
    if errors:
        print("documentation checks failed:", file=sys.stderr)
        for error in errors:
            print("  " + error, file=sys.stderr)
        return 1
    print("docs ok: %d files, %d known metrics" % (len(doc_files()), len(known)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
