"""The public surface carries no name that only the tests use.

Every function and class exported in ``ordlen.__all__`` must be referenced
somewhere a user or the program reaches it: in ``src/ordlen`` outside its
own definition and ``__init__.py``, anywhere under ``olbench/``, or in
``README.md``.
"""

import inspect
import re
from pathlib import Path

import ordlen

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ordlen"


def _outside_tests() -> dict[Path, str]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [p for p in (ROOT / "olbench").rglob("*") if p.suffix in (".py", ".md")]
    files.append(ROOT / "README.md")
    return {p: p.read_text(encoding="utf-8") for p in files}


def _without_definition(text: str, obj) -> str:
    """The text with the object's own source lines blanked out."""
    lines, start = inspect.getsourcelines(obj)
    kept = text.splitlines()
    del kept[start - 1 : start - 1 + len(lines)]
    return "\n".join(kept)


def test_every_exported_function_and_class_is_used_outside_the_tests():
    texts = _outside_tests()
    unused = []
    for name in ordlen.__all__:
        obj = inspect.unwrap(getattr(ordlen, name))
        if not callable(obj):
            continue
        home = Path(inspect.getsourcefile(obj)).resolve()
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        if not any(
            pattern.search(_without_definition(text, obj) if path.resolve() == home else text)
            for path, text in texts.items()
        ):
            unused.append(name)
    assert not unused, f"exported but used only by the tests: {unused}"
