"""Keep a failing property test's report under ``filterwarnings = error``.

On a failure, hypothesis' pytest plugin imports ``hypothesis.extra._patching``
to offer a patch of the falsifying example. Where libcst is installed, that
import raises a DeprecationWarning (``mypy_extensions.TypedDict``), which the
warning filter turns into an error: pytest then ends in INTERNALERROR and
prints neither the failure nor the example. Importing the module once here,
with that warning ignored, leaves the plugin nothing to warn about; without
libcst the import fails and the plugin goes without patches, as before."""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
