"""The package's public names."""
import ringsweep


def test_every_public_name_resolves():
    assert len(set(ringsweep.__all__)) == len(ringsweep.__all__)
    assert [name for name in ringsweep.__all__ if not hasattr(ringsweep, name)] == []
