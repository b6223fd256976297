"""Loading bundled and external ``.kbp`` protocol specs.

The protocol zoo's specs ship inside the package, under
``repro/spec/specs/``.  :func:`load_spec` accepts either a bundled name
(``"muddy_children"``) or a filesystem path (anything containing a path
separator or ending in ``.kbp``), with keyword arguments overriding the
spec's declared ``param`` defaults::

    spec = load_spec("muddy_children", n=4)
    context = spec.variable_context()
    model = spec.symbolic_model()

Parsed specs are cached: :func:`load_spec` keeps a small LRU of parsed
specs keyed on the file's *text*, its base name and the parameters, so
an edited file is re-parsed, and it hands every caller a fresh
:meth:`~repro.spec.ir.ProtocolSpec.copy` so no caller can corrupt the
cache.  :func:`~repro.spec.parser.parse_spec` itself caches nothing.
"""

import os
import threading

from repro import obs as _obs
from repro.spec.parser import parse_spec
from repro.util.errors import SpecError

__all__ = ["bundled_spec_names", "bundled_spec_path", "load_spec"]

_SPEC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "specs")
_SPEC_SUFFIX = ".kbp"
_CACHE_SIZE = 32
_CACHE = {}  # (text, source, sorted params) -> ProtocolSpec, oldest first
_CACHE_LOCK = threading.Lock()


def bundled_spec_names():
    """Sorted names of the specs bundled with the library."""
    return sorted(
        entry[: -len(_SPEC_SUFFIX)]
        for entry in os.listdir(_SPEC_DIR)
        if entry.endswith(_SPEC_SUFFIX)
    )


def bundled_spec_path(name):
    """Filesystem path of the bundled spec called ``name``."""
    path = os.path.join(_SPEC_DIR, name + _SPEC_SUFFIX)
    if not os.path.exists(path):
        raise SpecError(
            f"no bundled spec {name!r} (available: {', '.join(bundled_spec_names())})"
        )
    return path


def load_spec(name_or_path, **params):
    """Parse a bundled spec by name, or any ``.kbp`` file by path.

    Keyword arguments override the spec's ``param`` defaults (values must
    be integers); unknown parameter names are rejected.  Every call
    returns a fresh spec; parses are cached on the file's text, so a file
    edited between calls is parsed again.
    """
    candidate = str(name_or_path)
    if os.sep in candidate or candidate.endswith(_SPEC_SUFFIX):
        path = candidate
        if not os.path.exists(path):
            raise SpecError(f"spec file not found: {path}")
    else:
        path = bundled_spec_path(candidate)
    source = os.path.basename(path)
    # Checked before the cache lookup: 3.0 and True compare equal to
    # integers and would otherwise be served a cached spec.
    for param, value in params.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise SpecError(
                f"parameter {param!r} must be an integer, got {value!r}", source=source
            )
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    key = (text, source, tuple(sorted(params.items())))
    with _CACHE_LOCK:
        spec = _CACHE.pop(key, None)
        if spec is not None:
            _CACHE[key] = spec  # re-inserted as the most recently used entry
    cached = spec is not None
    if not cached:
        spec = parse_spec(text, params=params, source=source)
        with _CACHE_LOCK:
            _CACHE[key] = spec
            if len(_CACHE) > _CACHE_SIZE:
                del _CACHE[next(iter(_CACHE))]
    if _obs.ENABLED:
        _obs.counter("spec.load", cached=cached)
    return spec.copy()
