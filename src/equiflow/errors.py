"""Exception taxonomy shared across the package.

ConfigError maps to CLI exit code 2, NumericalError (and subclasses) to
exit code 3. Plain ValueError is reserved for programming errors at API
boundaries (bad argument combinations that no config file can produce).
"""


class ConfigError(Exception):
    """Invalid configuration: bad grid bounds, unknown keys, a = 0, ..."""


class NumericalError(Exception):
    """A numerical procedure failed or left its validity envelope."""


class StepError(NumericalError):
    """Implicit time step did not converge."""


class InstabilityError(NumericalError):
    """Evolution left the stability envelope (norm drift, energy blowup)."""


class GaugeError(NumericalError):
    """Frame transport lost orthonormality beyond repair."""


class FitError(NumericalError):
    """Modulation parameter fit failed (no crossing, Newton divergence)."""


class ReconstructionError(NumericalError):
    """Map reconstruction fixed point left the contraction regime."""
