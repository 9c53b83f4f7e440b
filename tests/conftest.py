import pytest


def pytest_addoption(parser):
    parser.addoption("--slow", action="store_true", default=False,
                     help="add the degree-4 and degree-5 checks (the whole "
                          "suite then takes about 2 min on 2 cores)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--slow"):
        return
    skip = pytest.mark.skip(reason="pass --slow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
