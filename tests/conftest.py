"""Suite-wide execution-tier pin.

Every path specializes by default: recognized chains run as one
generated fused function (DESIGN.md §15).  ``pytest --tier compiled``
runs the whole suite with fused-function generation turned off, so the
compiled chain walk keeps full-suite coverage too.  The pin is the
``Path.specialize`` class attribute; differential tests that compare
tiers set it per path and are unaffected.
"""

from repro.core.path import Path

TIERS = ("fused", "compiled")

#: ``Path.specialize`` as the package ships it, before any ``--tier`` pin.
SHIPPED_SPECIALIZE = Path.specialize


def pytest_addoption(parser):
    parser.addoption(
        "--tier", choices=TIERS, default="fused",
        help="execution tier for every path the suite creates "
             "(default: fused)")


def pytest_configure(config):
    Path.specialize = config.getoption("tier") == "fused"


def pytest_report_header(config):
    return f"execution tier: {config.getoption('tier')}"
