"""Every error class of the package is raised somewhere in it."""

import inspect
from pathlib import Path

import expdiff
from expdiff import errors


def test_every_error_class_is_constructed():
    src = Path(expdiff.__file__).parent
    text = "".join(path.read_text() for path in sorted(src.glob("*.py"))
                   if path.name != "errors.py")
    classes = [name for name, obj in inspect.getmembers(errors, inspect.isclass)
               if issubclass(obj, errors.ExpdiffError) and obj is not errors.ExpdiffError]
    assert classes
    unused = [name for name in classes if f"{name}(" not in text]
    assert not unused, f"error classes never constructed: {unused}"
