"""The chicc / chirun / chidump command-line toolchain."""

import pytest

from repro.cli import chicc, chidump, chirun

PROGRAM = """
int main() {
    int OUT[8];
    #pragma omp parallel target(X3000) shared(OUT) num_threads(8)
    {
        __asm {
            mul.1.dw vr1 = tid, 3
            st.1.dw (OUT, tid, 0) = vr1
            end
        }
    }
    printf("OUT[7]=%d\\n", OUT[7]);
    return 0;
}
"""


@pytest.fixture
def source(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(PROGRAM)
    return path


class TestChicc:
    def test_compiles_to_fatbin(self, source, capsys):
        assert chicc([str(source)]) == 0
        out = source.with_suffix(".fatbin")
        assert out.exists()
        assert out.read_bytes()[:4] == b"FATB"
        assert "1 accelerator section" in capsys.readouterr().out

    def test_explicit_output_and_sections(self, source, tmp_path, capsys):
        target = tmp_path / "custom.fatbin"
        assert chicc([str(source), "-o", str(target), "--sections"]) == 0
        assert target.exists()
        assert "X3000" in capsys.readouterr().out

    def test_compile_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main() { return x; }")
        assert chicc([str(bad)]) == 1
        assert "chicc:" in capsys.readouterr().err


class TestChirun:
    def test_runs_c_directly(self, source, capsys):
        assert chirun([str(source)]) == 0
        assert "OUT[7]=21" in capsys.readouterr().out

    def test_runs_fatbin(self, source, capsys):
        chicc([str(source)])
        capsys.readouterr()
        assert chirun([str(source.with_suffix(".fatbin"))]) == 0
        assert "OUT[7]=21" in capsys.readouterr().out

    def test_exit_value_propagates(self, tmp_path):
        path = tmp_path / "seven.c"
        path.write_text("int main() { return 7; }")
        assert chirun([str(path)]) == 7

    def test_stats_flag(self, source, capsys):
        assert chirun([str(source), "--stats"]) == 0
        captured = capsys.readouterr()
        assert "shreds=8" in captured.err

    def test_stats_print_every_engine_counter(self, source, capsys):
        from dataclasses import fields

        from repro.gma.counters import EngineCounters

        assert chirun([str(source), "--engine", "megaop", "--stats"]) == 0
        err = capsys.readouterr().err
        engine_lines = [line for line in err.splitlines()
                        if line.startswith("[chirun] engine=megaop ")]
        assert len(engine_lines) == 1
        for counter in fields(EngineCounters):
            assert f" {counter.name}=" in engine_lines[0], counter.name
        assert "gang_residency=" in engine_lines[0]
        assert "[chirun] predecode_cache " in err

    def test_serve_honours_scalar_engine(self, capsys):
        assert chirun(["--serve", "--engine", "scalar", "--stats"]) == 0
        err = capsys.readouterr().err
        assert "[chirun] engine=scalar " in err

    @pytest.mark.parametrize("engine", ["gang", "fused"])
    def test_retired_engine_names_rejected(self, source, engine):
        with pytest.raises(SystemExit) as exc:
            chirun([str(source), "--engine", engine])
        assert exc.value.code == 2

    def test_fatbin_without_host_source(self, tmp_path, capsys):
        from repro.chi.fatbinary import FatBinary

        path = tmp_path / "empty.fatbin"
        path.write_bytes(FatBinary(name="empty").serialize())
        assert chirun([str(path)]) == 1
        assert "no host code" in capsys.readouterr().err


class TestChidump:
    def test_lists_and_disassembles(self, source, capsys):
        chicc([str(source)])
        capsys.readouterr()
        assert chidump([str(source.with_suffix(".fatbin"))]) == 0
        out = capsys.readouterr().out
        assert "X3000" in out
        assert "st.1.dw (OUT, tid, 0) = vr1" in out

    def test_no_disassembly_flag(self, source, capsys):
        chicc([str(source)])
        capsys.readouterr()
        assert chidump([str(source.with_suffix(".fatbin")),
                        "--no-disassembly"]) == 0
        assert "st.1.dw" not in capsys.readouterr().out

    def test_bad_image(self, tmp_path, capsys):
        path = tmp_path / "junk.fatbin"
        path.write_bytes(b"not a fat binary")
        assert chidump([str(path)]) == 1
        assert "chidump:" in capsys.readouterr().err


class TestFatbinHostSourceIntegrity:
    def test_mismatched_sections_detected(self, source, tmp_path, capsys):
        """A fat binary whose host source disagrees with its code sections
        (e.g. hand-edited) is rejected rather than silently misrun."""
        from repro.chi.fatbinary import FatBinary
        from repro.isa.assembler import assemble

        chicc([str(source)])
        fat = FatBinary.deserialize(source.with_suffix(".fatbin").read_bytes())
        fat.add_section("X3000", assemble("end", "extra"))
        tampered = tmp_path / "tampered.fatbin"
        tampered.write_bytes(fat.serialize())
        capsys.readouterr()
        assert chirun([str(tampered)]) == 1
        assert "disagree" in capsys.readouterr().err
