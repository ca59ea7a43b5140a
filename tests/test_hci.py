"""``hci.parse_mac``: the MAC text it accepts and the text it refuses."""

import pytest

from bcmdiag import hci


@pytest.mark.parametrize("text, octets", [
    ("00:11:22:33:44:55", "001122334455"),
    ("AA:bb:Cc:dD:ee:FF", "aabbccddeeff"),
    ("0:1:2:3:4:5", "000102030405"),  # one digit an octet
    ("  00:11:22:33:44:55\n", "001122334455"),  # surrounding space is stripped
    ("0x1:02:03:04:05:006", "010203040506"),  # each part is int(part, 16)
    ("00:11:22:33: 44:55", "001122334455"),
    ("00:11:22:33:44:5_5", "001122334455"),
])
def test_accepted(text, octets):
    assert hci.parse_mac(text) == bytes.fromhex(octets)


@pytest.mark.parametrize("text", [
    "",
    "00:11:22:33:44",  # five parts
    "00:11:22:33:44:55:66",  # seven
    "00-11-22-33-44-55",
    "00:11:22:33:44:",  # an empty part
    "00:11:22:33:44:gg",
    "00:11:22:33:44:100",  # above 0xff
    "00:11:22:33:44:-1",
])
def test_refused(text):
    with pytest.raises(ValueError):
        hci.parse_mac(text)
