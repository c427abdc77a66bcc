import functools

import pytest

from cubemass.metric import MetricJet2


@pytest.fixture
def count_computations(monkeypatch):
    """count_computations(name) returns a list that gains one entry each
    time the cached property ``MetricJet2.<name>`` is computed, not each
    time it is read."""
    def install(name):
        computed = []
        func = getattr(MetricJet2, name).func

        def counted(jet):
            computed.append(name)
            return func(jet)

        prop = functools.cached_property(counted)
        prop.__set_name__(MetricJet2, name)
        monkeypatch.setattr(MetricJet2, name, prop)
        return computed
    return install
