"""Importing the workloads package must not emit deprecation warnings."""

import importlib
import sys
import warnings


def test_workloads_package_itself_does_not_warn():
    """``import repro.workloads`` must stay warning-free."""
    for name in [m for m in sys.modules if m.startswith("repro.workloads")]:
        sys.modules.pop(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        importlib.import_module("repro.workloads")
