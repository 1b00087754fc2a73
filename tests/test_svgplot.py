import pytest

from hcmkit import svgplot
from hcmkit.errors import ConfigError

HEADER = "theta_deg,gamma_s,psi_l_deg,u_barr_unitless,t_star_ms,bistable\n"

SMALL = HEADER + (
    "-10.0,4.0,30.5,4.2,66.9,true\n"
    "-10.0,8.0,,,110.7,false\n"
    "0.0,4.0,36.0,5.1,66.9,true\n"
    "0.0,8.0,38.5,5.9,110.7,true\n"
)


def _write(tmp_path, text, name="sweep.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_renders_two_svgs(tmp_path):
    paths = svgplot.render_plots(_write(tmp_path, SMALL), tmp_path / "out")
    assert [p.split("/")[-1] for p in paths] == ["psi_l_deg.svg", "u_barr_unitless.svg"]
    for p in paths:
        text = open(p).read()
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")


def test_monostable_cells_render_gray(tmp_path):
    (path,) = svgplot.render_plots(_write(tmp_path, SMALL), tmp_path / "out")[:1]
    text = open(path).read()
    assert "#cccccc" in text
    assert ">n/a<" in text


def test_deterministic_bytes(tmp_path):
    src = _write(tmp_path, SMALL)
    a = svgplot.render_plots(src, tmp_path / "a")
    b = svgplot.render_plots(src, tmp_path / "b")
    for pa, pb in zip(a, b):
        assert open(pa, "rb").read() == open(pb, "rb").read()


def test_header_only_rejected(tmp_path):
    with pytest.raises(ConfigError, match="no data rows"):
        svgplot.render_plots(_write(tmp_path, HEADER), tmp_path / "out")


def test_wrong_header_rejected(tmp_path):
    with pytest.raises(ConfigError, match="header"):
        svgplot.render_plots(_write(tmp_path, "a,b,c\n1,2,3\n"), tmp_path / "out")


def test_bad_row_rejected(tmp_path):
    bad = HEADER + "-10.0,4.0,30.5\n"
    with pytest.raises(ConfigError, match="column count"):
        svgplot.render_plots(_write(tmp_path, bad), tmp_path / "out")


@pytest.mark.parametrize(
    "body, match",
    [
        (b"0.0,4.0,30.5,4.2,66.9,true\n-10.0,4.0,30.5,4.2\xff,66.9,true\n", "line 3: not UTF-8"),
        (b"0.0,4.0," + b"9" * 131_073 + b",4.2,66.9,true\n", "line 2: field larger"),
        (b"0.0,4.0,30.5,4.2,66.9,true\nnan,4.0,30.5,4.2,66.9,true\n", "line 3: non-finite theta"),
        (b"0.0,inf,30.5,4.2,66.9,true\n", "line 2: non-finite gamma_s"),
        (b"0.0,4.0,-inf,4.2,66.9,true\n", "line 2: non-finite psi_l_deg"),
        (b"0.0,4.0,30.5,NaN,66.9,true\n", "line 2: non-finite u_barr_unitless"),
    ],
)
def test_unusable_row_rejected(tmp_path, body, match):
    path = tmp_path / "sweep.csv"
    path.write_bytes(HEADER.encode() + body)
    with pytest.raises(ConfigError, match=match):
        svgplot.render_plots(path, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        svgplot.render_plots(tmp_path / "absent.csv", tmp_path / "out")


def test_constant_field_uses_midscale(tmp_path):
    flat = HEADER + ("0.0,4.0,30.0,4.0,66.9,true\n" "0.0,6.0,30.0,4.0,80.0,true\n")
    paths = svgplot.render_plots(_write(tmp_path, flat), tmp_path / "out")
    text = open(paths[0]).read()
    # all-equal values take the ramp midpoint, never divide by zero
    assert text.count("#21918c") == 2
