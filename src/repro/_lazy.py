"""Lazy package re-exports (PEP 562): import a submodule when it is asked for.

A process should pay for what its role runs.  A cluster worker that only
scans start codes used to load the encoder, the DES and scipy because
every package ``__init__`` imported its submodules for the sake of
``from repro import Decoder``.  With this helper a package lists where its
public names live and nothing is imported until one is touched::

    __getattr__, __dir__ = lazy_exports(__name__, {"Decoder": "repro.mpeg2.decoder"})

Submodule attribute access (``import repro; repro.mpeg2.fast_vlc``) keeps
working the same way: an unknown attribute is tried as a submodule.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Module-level ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each public name to the module that defines it.  A
    resolved name is stored on the package, so the hook runs once per name.
    """

    def __getattr__(name: str) -> object:
        if name in exports:
            value = getattr(importlib.import_module(exports[name]), name)
        elif name.startswith("__"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            submodule = f"{package}.{name}"
            try:
                value = importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise  # the submodule exists; one of its imports does not
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
