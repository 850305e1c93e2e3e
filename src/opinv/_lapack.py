"""scipy's LAPACK routines without scipy.linalg's package, whose array-API
layer imports every numpy submodule.  The extension is registered under its
own name, so ``scipy.linalg.lapack`` reuses it and exports the same objects."""

import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from pathlib import Path

import scipy

_NAME = "scipy.linalg._flapack"


def flapack(directory: Path):
    """scipy's ``_flapack`` module, loaded from ``directory`` unless already
    loaded, or ``scipy.linalg.lapack`` if ``directory`` has no such file."""
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    for path in (directory / f"_flapack{suffix}" for suffix in EXTENSION_SUFFIXES):
        if path.is_file():
            spec = spec_from_loader(_NAME, ExtensionFileLoader(_NAME, str(path)))
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_NAME] = module
            return module
    from scipy.linalg import lapack
    return lapack


_routines = flapack(Path(scipy.__file__).parent / "linalg")
dpbsv, dpotrf, dpotrs = _routines.dpbsv, _routines.dpotrf, _routines.dpotrs
