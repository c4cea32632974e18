"""Shared fixtures: every test starts and ends with empty process memos."""

import pytest

from gpconsensus import engine


def clear_memos():
    """Empty the automatic lip_f memo and the offline factor memo."""
    engine._auto_lip_f.cache_clear()
    engine._offline_factor_memo.cache_clear()


@pytest.fixture(autouse=True)
def empty_memos():
    # a test that counts builds, kernel matrices or grid solves must not
    # see entries an earlier test left behind, nor leave its own
    clear_memos()
    yield
    clear_memos()
