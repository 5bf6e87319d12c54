import numpy as np
import pytest

from spdc1d.errors import ConfigError
from spdc1d.materials import constant_material
from spdc1d.structure import StructureSpec

from reference import boundaries, z_reference


def _mat(n=2.0):
    return constant_material("m", n)


def test_boundaries_and_references():
    st = StructureSpec(((_mat(), 50e-9, 1), (_mat(1.5), 30e-9, 1)),
                       _mat(1.0), _mat(1.0))
    z = boundaries(st)
    assert z[0] == 0.0
    assert np.allclose(np.diff(z), [50e-9, 30e-9])
    assert z_reference(st, 0) == 0.0
    assert z_reference(st, 1) == 0.0
    assert z_reference(st, 2) == 50e-9
    assert z_reference(st, 3) == 80e-9
    assert st.length(0) == 0.0 and st.length(3) == 0.0
    assert st.material(0).name == "m"


def test_split_layer_geometry():
    st = StructureSpec(((_mat(), 100e-9, -1),), _mat(1.0), _mat(1.0))
    sp = st.split_layer(1, 0.25)
    assert sp.n_layers == 2
    assert sp.length(1) == pytest.approx(25e-9)
    assert sp.length(2) == pytest.approx(75e-9)
    assert sp.poling(1) == -1 and sp.poling(2) == -1
    assert np.allclose(boundaries(sp), [0.0, 25e-9, 100e-9])


def test_validation_errors():
    with pytest.raises(ConfigError):
        StructureSpec((), _mat(), _mat())
    with pytest.raises(ConfigError):
        StructureSpec(((_mat(), -1e-9, 1),), _mat(), _mat())
    with pytest.raises(ConfigError):
        StructureSpec(((_mat(), 1e-9, 2),), _mat(), _mat())
    nl = constant_material("nl", 2.0, chi2={("y", "x", "y"): 1e-12})
    with pytest.raises(ConfigError, match="linear"):
        StructureSpec(((_mat(), 1e-9, 1),), nl, _mat())
    with pytest.raises(ConfigError):
        StructureSpec(((_mat(), 10e-9, 1),), _mat(), _mat()).split_layer(2)


def test_geometry_grid_lengths_reject_any_nonpositive_entry():
    good = np.array([[20e-9], [40e-9]])
    st = StructureSpec(((_mat(), good, 1), (_mat(1.5), 30e-9, 1)),
                       _mat(1.0), _mat(1.0))
    assert st.length(1) is good
    for bad in (np.array([20e-9, 0.0]), np.array([[30e-9, -1e-9]])):
        with pytest.raises(ConfigError, match="nonpositive length"):
            StructureSpec(((_mat(), bad, 1),), _mat(1.0), _mat(1.0))
