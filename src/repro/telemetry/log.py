"""Structured logging for the CLI and experiment drivers.

``repro.telemetry.log`` replaces bare ``print`` calls with leveled,
optionally-structured output::

    from repro.telemetry import log
    log.info(result.rendered())
    log.debug("expanded sweep", jobs=12, workers=4)
    log.error("sweep failed", job=3)

Messages render as the plain text the CLI always printed, with any
keyword fields appended as ``key=value`` pairs — greppable without a log
parser, diffable against old output when no fields are passed. ``info``
and ``debug`` go to stdout, ``warning`` and ``error`` to stderr.

Verbosity is process-global and set once by the CLI entry point from
``--verbose``/``--quiet`` (:func:`configure`); the default shows info
and above, exactly the old ``print`` behaviour, so library callers can
log unconditionally and let the front end decide what the user sees.
"""

from __future__ import annotations

import sys

DEBUG = 10
INFO = 20
WARNING = 30
ERROR = 40

_LEVEL_NAMES = {DEBUG: "debug", INFO: "info", WARNING: "warning", ERROR: "error"}

#: Messages below this level are suppressed (module-global, CLI-owned).
_threshold = INFO


def configure(*, verbose: bool = False, quiet: bool = False) -> int:
    """Set the global threshold from CLI flags; returns the new level.

    ``--verbose`` shows debug output, ``--quiet`` keeps only warnings and
    errors; ``verbose`` wins if both are passed (explicit asks beat
    silencing).
    """
    global _threshold
    if verbose:
        _threshold = DEBUG
    elif quiet:
        _threshold = WARNING
    else:
        _threshold = INFO
    return _threshold


def level() -> int:
    """The current global threshold."""
    return _threshold


def format_fields(fields: dict) -> str:
    """Render structured fields as a ``key=value`` suffix."""
    if not fields:
        return ""
    return " " + " ".join(f"{key}={value}" for key, value in fields.items())


def _emit(message_level: int, message: str, fields: dict, stream) -> None:
    if message_level < _threshold:
        return
    prefix = ""
    if message_level != INFO:
        prefix = f"[{_LEVEL_NAMES[message_level]}] "
    print(f"{prefix}{message}{format_fields(fields)}", file=stream)


def debug(message: str, **fields) -> None:
    """Verbose-only diagnostics (shown under ``--verbose``)."""
    _emit(DEBUG, message, fields, sys.stdout)


def info(message: str, **fields) -> None:
    """Normal user-facing output (suppressed under ``--quiet``)."""
    _emit(INFO, message, fields, sys.stdout)


def warning(message: str, **fields) -> None:
    """Recoverable problems; shown even under ``--quiet``."""
    _emit(WARNING, message, fields, sys.stderr)


def error(message: str, **fields) -> None:
    """Failures; shown even under ``--quiet``."""
    _emit(ERROR, message, fields, sys.stderr)
