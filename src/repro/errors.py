"""Exception hierarchy for the ECT-Hub reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class at API boundaries. Subclasses mark which subsystem raised
the error; messages carry enough context to debug without a traceback.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError):
    """A configuration value is missing, malformed, or inconsistent."""


class DataError(ReproError):
    """A synthetic dataset or trace is malformed or internally inconsistent."""


class EnergyModelError(ReproError):
    """A physical energy model was driven outside its valid envelope."""


class GridError(EnergyModelError):
    """Grid interaction violated an operating rule (e.g. feed-in attempt)."""


class HubError(ReproError):
    """ECT-Hub composition or simulation failed an invariant."""


class ConstraintViolation(HubError):
    """A hard operating constraint (Eq. 5 / Eq. 6 of the paper) was violated."""


class ModelError(ReproError):
    """A learned model (NCF / CF-MTL / PPO) was misused or failed to fit."""


class NotFittedError(ModelError):
    """A model method requiring training was called before ``fit``."""


class EnvError(ReproError):
    """The RL environment was driven incorrectly (e.g. step before reset)."""


class ExperimentError(ReproError):
    """An experiment runner failed or an unknown experiment id was requested."""


class FleetError(ReproError):
    """The batched fleet engine was misconfigured or driven incorrectly."""


class ParallelError(ReproError):
    """A parallel sweep job failed; the message names the job's overrides.

    ``job_traceback`` carries the worker's formatted traceback text (the
    remote stack is otherwise lost when the exception is pickled back),
    so the CLI can show *where* in the worker the job died, not just
    which overrides it ran.
    """

    def __init__(self, message: str, *, job_traceback: str | None = None) -> None:
        super().__init__(message)
        self.job_traceback = job_traceback
