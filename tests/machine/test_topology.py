"""MachineSpec and JobLayout: placement, locality, ownership, host teams."""

import pytest

from repro.machine import JobLayout, Locality, lassen
from repro.machine.topology import MachineSpec


@pytest.fixture(scope="module")
def m():
    return lassen()


class TestMachineSpec:
    def test_lassen_shape(self, m):
        assert m.sockets_per_node == 2
        assert m.cores_per_socket == 20
        assert m.gpus_per_socket == 2
        assert m.gpus_per_node == 4
        assert m.cores_per_node == 40
        assert m.max_ppn == 40

    def test_gpu_socket_mapping(self, m):
        assert [m.gpu_socket(g) for g in range(4)] == [0, 0, 1, 1]
        with pytest.raises(ValueError):
            m.gpu_socket(4)

    def test_invalid_specs_rejected(self, m):
        with pytest.raises(ValueError):
            MachineSpec("bad", 0, 20, 2, m.comm_params, m.copy_params, m.nic)
        with pytest.raises(ValueError):
            # more GPUs than cores on a socket
            MachineSpec("bad", 1, 2, 3, m.comm_params, m.copy_params, m.nic)

    def test_non_integer_counts_rejected_naming_field(self, m):
        with pytest.raises(ValueError, match="sockets_per_node"):
            MachineSpec("bad", 2.0, 20, 2,
                        m.comm_params, m.copy_params, m.nic)
        with pytest.raises(ValueError, match="cores_per_socket"):
            MachineSpec("bad", 2, float("nan"), 2,
                        m.comm_params, m.copy_params, m.nic)
        with pytest.raises(ValueError, match="gpus_per_socket"):
            MachineSpec("bad", 2, 20, -1,
                        m.comm_params, m.copy_params, m.nic)


class TestJobLayout:
    def test_shape_validation(self, m):
        with pytest.raises(ValueError):
            JobLayout(m, num_nodes=0, ppn=4)
        with pytest.raises(ValueError):
            JobLayout(m, num_nodes=1, ppn=41)  # exceeds cores
        with pytest.raises(ValueError):
            JobLayout(m, num_nodes=1, ppn=3)   # cannot host 4 GPU owners

    def test_non_integer_shape_rejected_naming_field(self, m):
        with pytest.raises(ValueError, match="num_nodes"):
            JobLayout(m, num_nodes=2.0, ppn=4)
        with pytest.raises(ValueError, match="ppn"):
            JobLayout(m, num_nodes=2, ppn=float("nan"))
        with pytest.raises(ValueError, match="num_nodes"):
            JobLayout(m, num_nodes=True, ppn=4)

    def test_owner_placement_on_gpu_socket(self, m):
        lay = JobLayout(m, num_nodes=2, ppn=40)
        for node in range(2):
            for gpu in range(4):
                owner = lay.owner_of_gpu(node, gpu)
                assert lay.gpu_of(owner) == gpu
                assert lay.socket_of(owner) == m.gpu_socket(gpu)
                assert lay.node_of(owner) == node

    def test_global_gpu_numbering(self, m):
        lay = JobLayout(m, num_nodes=3, ppn=8)
        owners = lay.gpu_owner_ranks()
        assert len(owners) == 12
        gg = [lay.global_gpu_of(r) for r in owners]
        assert sorted(gg) == list(range(12))
        for g in range(12):
            assert lay.global_gpu_of(lay.owner_of_global_gpu(g)) == g

    def test_helpers_own_no_gpu(self, m):
        lay = JobLayout(m, num_nodes=1, ppn=40)
        helpers = [r for r in range(40) if lay.gpu_of(r) is None]
        assert len(helpers) == 36

    def test_helpers_balance_sockets(self, m):
        lay = JobLayout(m, num_nodes=1, ppn=40)
        per_socket = [0, 0]
        for r in range(40):
            per_socket[lay.socket_of(r)] += 1
        assert per_socket == [20, 20]

    def test_locality_classification(self, m):
        lay = JobLayout(m, num_nodes=2, ppn=40)
        o = [lay.owner_of_gpu(0, g) for g in range(4)]
        assert lay.locality(o[0], o[1]) is Locality.ON_SOCKET
        assert lay.locality(o[0], o[2]) is Locality.ON_NODE
        remote = lay.owner_of_gpu(1, 0)
        assert lay.locality(o[0], remote) is Locality.OFF_NODE
        assert lay.locality(o[3], o[3]) is Locality.ON_SOCKET

    def test_ranks_on_node(self, m):
        lay = JobLayout(m, num_nodes=3, ppn=5)
        assert lay.ranks_on_node(1) == [5, 6, 7, 8, 9]
        with pytest.raises(ValueError):
            lay.ranks_on_node(3)

    def test_owner_of_gpu_missing(self, m):
        lay = JobLayout(m, num_nodes=1, ppn=4)
        with pytest.raises(ValueError, match="no owner"):
            lay.owner_of_gpu(0, 7)
        with pytest.raises(ValueError, match="no owner"):
            lay.owner_of_gpu(0, -1)

    def test_owner_of_gpu_node_out_of_range(self, m):
        lay = JobLayout(m, num_nodes=2, ppn=4)
        for node in (2, -1):
            with pytest.raises(ValueError, match="out of range"):
                lay.owner_of_gpu(node, 0)
        for gpu in (8, -1):
            with pytest.raises(ValueError, match="out of range"):
                lay.owner_of_global_gpu(gpu)

    def test_owner_table_matches_a_scan(self, all_machines):
        for machine in all_machines:
            lay = JobLayout(machine, num_nodes=3, ppn=machine.max_ppn)
            for node in range(3):
                for gpu in range(machine.gpus_per_node):
                    scan = [r for r in lay.ranks_on_node(node)
                            if lay.gpu_of(r) == gpu]
                    assert [lay.owner_of_gpu(node, gpu)] == scan

    def test_host_team_on_socket(self, m):
        lay = JobLayout(m, num_nodes=1, ppn=40)
        team = lay.host_team(0, 0, 4)
        assert len(team) == 4
        owner = lay.owner_of_gpu(0, 0)
        assert team[0] == owner
        sock = lay.socket_of(owner)
        assert all(lay.socket_of(r) == sock for r in team)
        # helpers only (besides the owner)
        assert all(lay.gpu_of(r) is None for r in team[1:])

    def test_host_team_fallback_when_socket_short(self, m):
        lay = JobLayout(m, num_nodes=1, ppn=8)
        team = lay.host_team(0, 0, 4)
        assert len(team) == 4 and len(set(team)) == 4

    def test_host_team_strict_raises(self, m):
        lay = JobLayout(m, num_nodes=1, ppn=4)
        with pytest.raises(ValueError):
            lay.host_team(0, 0, 5, strict=True)

    def test_num_gpus(self, m):
        assert JobLayout(m, num_nodes=5, ppn=4).num_gpus == 20
