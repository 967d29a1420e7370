"""Exception types shared across the package."""


class PdfuseError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(PdfuseError, ValueError):
    """An array has the wrong shape, dimension, or dtype for the operation."""


class ConfigError(PdfuseError, ValueError):
    """A configuration object or file is invalid or inconsistent."""


class FormatError(PdfuseError, ValueError):
    """An artifact file is malformed or fails validation on load."""


class DegenerateDirectionError(PdfuseError, ValueError):
    """A direction vector is unusable: zero norm or no class separation."""


class InversionDivergedError(PdfuseError, RuntimeError):
    """Latent optimization hit a non-finite objective.

    Carries the iteration index at which the objective became non-finite.
    """

    def __init__(self, iteration: int, message: str = ""):
        self.iteration = iteration
        detail = message or "objective became non-finite"
        super().__init__(f"inversion diverged at iteration {iteration}: {detail}")


class TrainingDivergedError(PdfuseError, RuntimeError):
    """A minibatch loss became non-finite during training."""


class MissingModalityError(PdfuseError, ValueError):
    """A subject record lacks a required modality (gait windows or face images)."""


class EmptyWindowsError(PdfuseError, ValueError):
    """Preprocessing dropped every window of a sequence.

    ``diagnostics`` lists, per candidate window, why it was rejected.
    """

    def __init__(self, message: str, diagnostics: list | None = None):
        self.diagnostics = diagnostics or []
        super().__init__(message)
