"""HCI opcodes, event codes, error codes and event parameter builders
used by the emulator and the client.

Only the slice of the command surface this toolkit exercises is here:
the baseband/link-control commands the connection flows need, plus the
Broadcom vendor commands (LMP injection, RAM access, modem register
access) and this toolkit's own vendor commands for managing the MAC
firewall, which has no native wire surface on real chips.
"""

from __future__ import annotations

import struct

# --- command opcodes (OGF/OCF packed, little endian on the wire) -----

OPCODE_CREATE_CONNECTION = 0x0405
OPCODE_DISCONNECT = 0x0406
OPCODE_RESET = 0x0C03
OPCODE_READ_LOCAL_VERSION = 0x1001
OPCODE_ENABLE_DUT_MODE = 0x1803
OPCODE_LE_CREATE_CONNECTION = 0x200D

# Broadcom vendor commands.
OPCODE_VSC_SUPER_DUPER_PEEK_POKE = 0xFC0C
OPCODE_VSC_WRITE_RAM = 0xFC4C
OPCODE_VSC_READ_RAM = 0xFC4D
OPCODE_VSC_SEND_LMP_PDU = 0xFC58

# Firewall management, synthetic to this emulator (the real firmware
# patch has no control channel).
OPCODE_VSC_FIREWALL_ADD = 0xFCE0
OPCODE_VSC_FIREWALL_DEL = 0xFCE1
OPCODE_VSC_FIREWALL_SHOW = 0xFCE2

OPCODE_NAMES = {
    OPCODE_CREATE_CONNECTION: "Create_Connection",
    OPCODE_DISCONNECT: "Disconnect",
    OPCODE_RESET: "Reset",
    OPCODE_READ_LOCAL_VERSION: "Read_Local_Version_Information",
    OPCODE_ENABLE_DUT_MODE: "Enable_Device_Under_Test_Mode",
    OPCODE_LE_CREATE_CONNECTION: "LE_Create_Connection",
    OPCODE_VSC_SUPER_DUPER_PEEK_POKE: "VSC_Super_Duper_Peek_Poke",
    OPCODE_VSC_WRITE_RAM: "VSC_Write_RAM",
    OPCODE_VSC_READ_RAM: "VSC_Read_RAM",
    OPCODE_VSC_SEND_LMP_PDU: "VSC_Send_LMP_PDU",
    OPCODE_VSC_FIREWALL_ADD: "VSC_Firewall_Add",
    OPCODE_VSC_FIREWALL_DEL: "VSC_Firewall_Del",
    OPCODE_VSC_FIREWALL_SHOW: "VSC_Firewall_Show",
}

# Create-connection opcode -> (where the peer's MAC starts in its
# parameters, the parameter length the client sends).
CREATE_CONNECTION_LAYOUT = {
    OPCODE_CREATE_CONNECTION: (0, 13),
    OPCODE_LE_CREATE_CONNECTION: (6, 25),
}

# --- event codes ------------------------------------------------------

EVT_CONNECTION_COMPLETE = 0x03
EVT_CONNECTION_REQUEST = 0x04
EVT_DISCONNECTION_COMPLETE = 0x05
EVT_COMMAND_COMPLETE = 0x0E
EVT_COMMAND_STATUS = 0x0F
EVT_HARDWARE_ERROR = 0x10
EVT_NUM_COMPLETED_PACKETS = 0x13
EVT_LE_META = 0x3E
EVT_VENDOR = 0xFF

LE_SUBEVT_CONNECTION_COMPLETE = 0x01

EVENT_NAMES = {
    EVT_CONNECTION_COMPLETE: "Connection_Complete",
    EVT_CONNECTION_REQUEST: "Connection_Request",
    EVT_DISCONNECTION_COMPLETE: "Disconnection_Complete",
    EVT_COMMAND_COMPLETE: "Command_Complete",
    EVT_COMMAND_STATUS: "Command_Status",
    EVT_HARDWARE_ERROR: "Hardware_Error",
    EVT_NUM_COMPLETED_PACKETS: "Number_Of_Completed_Packets",
    EVT_LE_META: "LE_Meta",
    EVT_VENDOR: "Vendor_Specific",
}

# --- error codes ------------------------------------------------------

ERR_SUCCESS = 0x00
ERR_UNKNOWN_COMMAND = 0x01
ERR_UNKNOWN_CONNECTION = 0x02
ERR_PAGE_TIMEOUT = 0x04
ERR_MEMORY_CAPACITY_EXCEEDED = 0x07
ERR_CONNECTION_TIMEOUT = 0x08
ERR_ACL_ALREADY_EXISTS = 0x0B
ERR_INVALID_PARAMETERS = 0x12
ERR_REMOTE_TERMINATED = 0x13
ERR_LMP_PDU_NOT_ALLOWED = 0x24

# Payload of the vendor event announcing device-under-test mode.
DUT_EVENT_PARAMS = b"DUT\x01"

# Hardware error code used when an emulated firmware fault fires.
HW_ERR_FIRMWARE_FAULT = 0x5A

# This chip's identity, as Read Local Version and the LMP/LL version PDUs give it.
HCI_VERSION = 0x09
HCI_REVISION = 0x1000
LMP_VERSION = 0x09
MANUFACTURER = 0x000F  # Broadcom
LMP_SUBVERSION = 0x2209


def command_complete(opcode: int, return_params: bytes = b"") -> bytes:
    """Event params: Num_HCI_Command_Packets, opcode, return values."""
    return struct.pack("<BH", 1, opcode) + return_params


def command_status(status: int, opcode: int) -> bytes:
    return struct.pack("<BBH", status, 1, opcode)


def connection_complete(status: int, handle: int, mac_wire: bytes) -> bytes:
    # Link_Type 0x01 (ACL), Encryption_Enabled 0x00.
    return struct.pack("<BH", status, handle) + mac_wire + b"\x01\x00"


def disconnection_complete(status: int, handle: int, reason: int) -> bytes:
    return struct.pack("<BHB", status, handle, reason)


def num_completed_packets(handle: int) -> bytes:
    return struct.pack("<BHH", 1, handle, 1)


def le_connection_complete(status: int, handle: int, role: int, mac_wire: bytes) -> bytes:
    return (
        struct.pack("<BBHBB", LE_SUBEVT_CONNECTION_COMPLETE, status, handle, role, 0)
        + mac_wire
        + struct.pack("<HHHB", 0x0028, 0x0000, 0x002A, 0x00)
    )


def local_version_params() -> bytes:
    """Read Local Version's answer: success and this chip's identity."""
    return struct.pack("<BBHBHH", ERR_SUCCESS, HCI_VERSION, HCI_REVISION,
                       LMP_VERSION, MANUFACTURER, LMP_SUBVERSION)


def parse_local_version(params: bytes) -> dict[str, int]:
    keys = (
        "status",
        "hci_version",
        "hci_revision",
        "lmp_version",
        "manufacturer",
        "lmp_subversion",
    )
    return dict(zip(keys, struct.unpack("<BBHBHH", params[:9])))


# MACs the firewall holds: an event's 255 parameter octets take the Command
# Complete's 3, then Firewall Show's status, enabled, count and 6 per MAC.
FIREWALL_ALLOWLIST_MAX = (255 - 3 - 3) // 6


def firewall_show_params(allowlist: set[bytes] | None) -> bytes:
    """Firewall Show's answer: success, whether the firewall is on (None
    is off), and each allowed MAC, in order, on the wire."""
    macs = sorted(allowlist or ())
    return bytes([ERR_SUCCESS, allowlist is not None, len(macs)]) + b"".join(map(mac_to_wire, macs))


def parse_firewall_show(params: bytes) -> list[bytes] | None:
    """The allowlist a Firewall Show answer holds, None when the firewall
    is off; struct.error when it is shorter than its count says."""
    _status, enabled, count = struct.unpack_from("<BBB", params)
    if not enabled:
        return None
    return [mac_from_wire(wire) for wire in struct.unpack_from("6s" * count, params, 3)]


def mac_to_wire(mac: bytes) -> bytes:
    """Display order (NAP first) to HCI wire order (LAP first)."""
    return bytes(reversed(mac))


def mac_from_wire(wire: bytes) -> bytes:
    return bytes(reversed(wire))


def format_mac(mac: bytes) -> str:
    return ":".join(f"{b:02x}" for b in mac)


def parse_mac(text: str) -> bytes:
    parts = text.strip().split(":")
    if len(parts) != 6:
        raise ValueError(f"MAC must have 6 colon-separated octets: {text!r}")
    return bytes([int(p, 16) for p in parts])  # a list: a generator resumes per octet


def low_mac(mac: bytes) -> bytes:
    """The UAP+LAP half of an address -- all the chip uses to address
    peers on the Classic link layer."""
    return mac[2:6]
