"""Shared exception types."""


class EstimationError(RuntimeError):
    """An estimator failed to converge or produce a usable value."""


class ResourceLimitError(RuntimeError):
    """A combinatorial or sampling budget was exceeded."""


class CampaignError(ValueError):
    """A campaign file failed to parse or validate; message names the line."""


class ParameterError(ValueError):
    """An argument outside its domain: ``name`` must lie in ``span``."""

    def __init__(self, name: str, span: str, value):
        super().__init__(f"{name} must lie in {span}, got {value!r}")
        self.name, self.span = name, span
