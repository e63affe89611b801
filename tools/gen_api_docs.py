"""Generate docs/API.md from the package's public surface.

Walks every repro subpackage, collects the objects named in ``__all__``
(or the public classes/functions of modules without one), and emits a
markdown reference with signatures and first-paragraph docstrings.
Other public objects (constants, registries, singletons) are listed by
type, so the output depends on the API alone, not on values or memory
addresses.

    python tools/gen_api_docs.py [output]     # default: docs/API.md
"""

import argparse
import importlib
import inspect
import pkgutil
from pathlib import Path

import repro

SKIP_MODULES = {"repro.cli", "repro.store.cli"}
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "docs" / "API.md"


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.split("\n\n")[0].replace("\n", " ").strip()


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def public_names(module):
    if hasattr(module, "__all__"):
        return list(module.__all__)
    return [name for name, obj in vars(module).items()
            if not name.startswith("_")
            and getattr(obj, "__module__", None) == module.__name__
            and (inspect.isclass(obj) or inspect.isfunction(obj))]


def document_module(module) -> list:
    lines = [f"## `{module.__name__}`", ""]
    intro = first_paragraph(module)
    if intro:
        lines += [intro, ""]
    for name in public_names(module):
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.isclass(obj):
            lines.append(f"### class `{name}{signature_of(obj)}`")
            lines += ["", first_paragraph(obj), ""]
            for meth_name, meth in sorted(vars(obj).items()):
                if meth_name.startswith("_"):
                    continue
                if inspect.isfunction(meth):
                    lines.append(
                        f"* `.{meth_name}{signature_of(meth)}` — "
                        f"{first_paragraph(meth)}")
                elif isinstance(meth, property):
                    lines.append(
                        f"* `.{meth_name}` (property) — "
                        f"{first_paragraph(meth.fget)}")
            lines.append("")
        elif inspect.isfunction(obj):
            lines.append(f"### `{name}{signature_of(obj)}`")
            lines += ["", first_paragraph(obj), ""]
        else:
            kind = type(obj)
            qualname = kind.__qualname__ if kind.__module__ == "builtins" \
                else f"{kind.__module__}.{kind.__qualname__}"
            lines.append(f"### `{name}`: `{qualname}`")
            lines.append("")
    return lines


def render() -> str:
    """The whole reference, as ``docs/API.md`` holds it."""
    lines = ["# API reference",
             "",
             "Generated by `python tools/gen_api_docs.py`; do not edit "
             "by hand.",
             ""]
    seen = set()
    package_names = ["repro"]
    for _, name, _ in pkgutil.walk_packages(repro.__path__, "repro."):
        package_names.append(name)
    for name in sorted(package_names):
        if name in SKIP_MODULES or name in seen:
            continue
        seen.add(name)
        module = importlib.import_module(name)
        # only document packages' __init__ and leaf modules with __all__
        if not hasattr(module, "__all__") and not hasattr(module, "__path__"):
            continue
        lines += document_module(module)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Generate the API reference from repro's public "
                    "surface.")
    parser.add_argument("output", nargs="?", type=Path,
                        default=DEFAULT_OUTPUT,
                        help="markdown file to write (default: docs/API.md)")
    args = parser.parse_args(argv)
    text = render()
    args.output.write_text(text)
    print(f"wrote {args.output} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
