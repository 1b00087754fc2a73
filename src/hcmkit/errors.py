"""Exception types shared across the toolkit.

Split by failure class: ConfigError means the inputs were bad (CLI exit 2),
the numeric errors mean a computation could not be completed (CLI exit 3),
and NotBistable is a domain outcome that callers may treat as either.
"""


class HcmError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(HcmError):
    """Invalid input: bad config file, field out of range, malformed CLI args."""


class NotBistable(HcmError):
    """The design has beta <= 0; bistable-only quantities are undefined."""


class NotCalibrated(HcmError):
    """Tip-angle evaluation requested without a calibration constant."""


class DegenerateAnchor(HcmError):
    """Calibration anchor produced a vanishing uncalibrated integral."""


class EigenFailure(HcmError):
    """Buckling found no positive finite critical load (the design under- or overflows)."""


class TooCoarse(ConfigError):
    """Discrete ribbon requested with too few links to resolve the kink."""


class NoConvergence(HcmError):
    """Energy minimization did not converge within the iteration budget."""


class FellToOppositeSide(HcmError):
    """Equilibrium search seeded on one side settled on the other."""


class NoCrossing(HcmError):
    """Snap trace never left the starting well; no duration defined."""


class StepTooLarge(HcmError):
    """Undamped integration drifted more than 5% in energy; reduce dt."""


class NonFinite(HcmError):
    """Integration overflowed to inf/nan."""

