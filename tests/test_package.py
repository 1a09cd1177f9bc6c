"""The package root: its modules, imported once, and its version."""

import grashof_expand as pkg


def test_package_root_exposes_its_modules():
    for name in ("expansion", "fixtures", "orders", "spectral", "steady"):
        assert getattr(pkg, name).__name__ == f"grashof_expand.{name}"
    assert pkg.__version__ == "0.1.0"
    # names are imported from their modules; the root re-exports none of them
    assert not hasattr(pkg, "solve_steady") and not hasattr(pkg, "__all__")
