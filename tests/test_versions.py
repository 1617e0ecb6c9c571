import itertools
import random

import pytest
from hypothesis import given, strategies as st

from smellprobe.versions import (
    OS_DICTIONARY,
    SoftwareId,
    classify_os,
    compare_versions,
    parse_banner,
    parse_version,
)

from helpers import oracle_compare_versions, within_cpu_budget

segments = st.lists(st.integers(min_value=0, max_value=999), min_size=1, max_size=5).map(tuple)


class TestParseBanner:
    def test_product_with_version_and_os(self):
        parsed = parse_banner("nginx/1.14.1 (Ubuntu)")
        assert len(parsed.software) == 1
        sid = parsed.software[0]
        assert sid.name == "nginx"
        assert sid.version == (1, 14, 1)
        assert parsed.os == "Ubuntu"

    def test_name_only_token(self):
        parsed = parse_banner("cloudflare")
        assert parsed.software[0].name == "cloudflare"
        assert parsed.software[0].version is None
        assert parsed.os is None

    def test_iis_token(self):
        sid = parse_banner("Microsoft-IIS/10.0").software[0]
        assert sid.name == "microsoft-iis"
        assert sid.version == (10, 0)
        assert sid.display_name == "Microsoft-IIS"

    def test_multiple_products_packed_into_one_banner(self):
        parsed = parse_banner("Apache/2.4.41 (Ubuntu) OpenSSL/1.1.1 mod_wsgi/4.6.8")
        names = [sid.name for sid in parsed.software]
        assert names == ["apache", "openssl", "mod_wsgi"]
        assert parsed.os == "Ubuntu"

    def test_unknown_annotation_is_neither_os_nor_product(self):
        parsed = parse_banner("Apache/2.4.41 (Custom Build 7)")
        assert parsed.os is None
        assert [sid.raw for sid in parsed.software] == ["Apache/2.4.41"]

    def test_first_recognised_annotation_names_the_os(self):
        parsed = parse_banner("Apache/2.4.41 (Custom Build 7) ( Debian ) (Ubuntu) PHP/7.4")
        assert parsed.os == "Debian"
        assert [sid.raw for sid in parsed.software] == ["Apache/2.4.41", "PHP/7.4"]

    def test_numeric_suffix_dropped_for_ordering(self):
        sid = SoftwareId("PHP/5.5.23-1ubuntu3")
        assert sid.version == (5, 5, 23)
        assert sid.raw == "PHP/5.5.23-1ubuntu3"
        assert sid.version_text == "5.5.23-1ubuntu3"

    def test_fully_non_numeric_version(self):
        sid = SoftwareId("nginx/beta2")
        assert sid.version is None
        assert sid.version_text == "beta2"

    def test_unparseable_token_falls_back_to_raw_name(self):
        sid = SoftwareId("/oddball")
        assert sid.name == "/oddball"
        assert sid.version is None

    @given(st.lists(st.integers(min_value=0, max_value=99), min_size=1, max_size=4))
    def test_numeric_information_survives_round_trip(self, parts):
        text = ".".join(str(p) for p in parts)
        sid = SoftwareId(f"thing/{text}")
        assert sid.version is not None
        assert [int(p) for p in text.split(".")] == list(sid.version)
        assert sid.version_string == text

    def test_os_classification_stays_in_dictionary(self):
        for annotation in ["Ubuntu", "CentOS", "cPanel", "Red Hat Enterprise", "Amazon", "PlanetX"]:
            result = classify_os(annotation)
            assert result is None or result in OS_DICTIONARY.values()

    def test_display_casing_preserved_for_leaks(self):
        sid = SoftwareId("PHP/5.5.23")
        assert sid.display_name == "PHP"
        assert sid.name == "php"


class TestCompareVersions:
    def test_downgrade_pair_orders_as_less(self):
        assert compare_versions((1, 12, 1), (1, 14, 1)) == -1

    def test_zero_padding_makes_equal(self):
        assert compare_versions((1, 0), (1, 0, 0)) == 0

    def test_segment_magnitude_beats_depth(self):
        assert compare_versions((2, 0), (1, 99)) == 1

    def test_empty_segments_rejected(self):
        with pytest.raises(ValueError):
            compare_versions((), (1,))

    def test_exhaustive_at_reduced_bound(self):
        pool = [
            tuple(c)
            for length in (1, 2, 3)
            for c in itertools.product(range(4), repeat=length)
        ]
        for a, b in itertools.product(pool, repeat=2):
            assert compare_versions(a, b) == oracle_compare_versions(a, b)

    def test_sampled_at_full_bound(self):
        rng = random.Random(7)
        for _ in range(2000):
            a = tuple(rng.randrange(100) for _ in range(rng.randint(1, 4)))
            b = tuple(rng.randrange(100) for _ in range(rng.randint(1, 4)))
            assert compare_versions(a, b) == oracle_compare_versions(a, b)

    @given(segments)
    def test_reflexive(self, a):
        assert compare_versions(a, a) == 0

    @given(segments, segments)
    def test_antisymmetric(self, a, b):
        assert compare_versions(a, b) == -compare_versions(b, a)

    @given(segments, segments, segments)
    def test_transitive(self, a, b, c):
        if compare_versions(a, b) <= 0 and compare_versions(b, c) <= 0:
            assert compare_versions(a, c) <= 0


def test_parse_version_edge_cases():
    assert parse_version("1.3.6b") == (1, 3, 6)
    assert parse_version("beta") is None
    assert parse_version("10") == (10,)


def test_numeric_prefix_stops_before_a_segment_past_640_digits():
    # int() raises on digit strings longer than its limit, 4,300 by default and 640 at least.
    assert parse_version("1." + "9" * 640 + ".2") == (1, 10**640 - 1, 2)
    assert parse_version("1.2." + "9" * 641) == (1, 2)
    assert parse_version("9" * 5000 + ".1") is None
    sid = SoftwareId("Apache/" + "9" * 5000)
    assert (sid.name, sid.version, sid.version_string) == ("apache", None, None)


def test_parse_banner_linear_on_unclosed_parentheses():
    value = "x (" * 21_845  # 65,535 characters, within the probe's header line limit
    with within_cpu_budget("a Server banner of 21,845 unclosed parentheses"):
        parsed = parse_banner("nginx/1.2 (Ubuntu) " + value)
    assert parsed.os == "Ubuntu"
    assert [sid.raw for sid in parsed.software] == ["nginx/1.2", *value.split()]


# Product tokens as parse_banner cuts them: no whitespace, "/" anywhere.
_TOKENS = st.text(st.sampled_from("/aZ-.1309_"), min_size=1, max_size=12) | st.text(
    st.characters(blacklist_categories=("Cs",)).filter(lambda c: not c.isspace()), min_size=1
)


@given(_TOKENS)
def test_software_id_is_one_split_of_its_token(token):
    sid = SoftwareId(token)
    assert sid.raw == token
    assert sid.name == sid.display_name.lower()
    has_version = "/" in token and not token.startswith("/")
    assert (sid.version_text is None) == (not has_version)
    if sid.version_text is not None:
        assert sid.display_name + "/" + sid.version_text == token
        assert sid.version == parse_version(sid.version_text)
    else:
        assert (sid.display_name, sid.version, sid.version_string) == (token, None, None)


def test_software_id_rejects_empty_name():
    with pytest.raises(ValueError):
        SoftwareId("")
