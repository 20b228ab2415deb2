"""Unit tests for component packaging, binaries and signatures."""

import zlib

import pytest

from repro.packaging.binaries import (
    BinaryRegistry,
    synthetic_payload,
)
from repro.packaging.package import (
    COMPONENT_PATH,
    ComponentPackage,
    PackageBuilder,
    PackageError,
    SIGNATURE_PATH,
    SOFTPKG_PATH,
)
from repro.packaging.signature import SignatureError, VendorKeyRegistry
from repro.util.errors import ConfigurationError
from repro.xmlmeta.descriptors import (
    ComponentTypeDescriptor,
    ImplementationDescriptor,
    PortDecl,
    QoSSpec,
    SoftwareDescriptor,
)
from repro.xmlmeta.versions import Version


def make_descriptors(name="Decoder"):
    soft = SoftwareDescriptor(
        name=name, version=Version(1, 0), vendor="acme",
        implementations=[
            ImplementationDescriptor("linux", "x86", "corba-lc",
                                     "demo.lin", "bin/linux-x86/impl"),
            ImplementationDescriptor("palmos", "arm", "corba-lc-micro",
                                     "demo.pda", "bin/palmos-arm/impl"),
        ],
    )
    comp = ComponentTypeDescriptor(
        name=name,
        provides=[PortDecl("out", "IDL:t/Out:1.0")],
        qos=QoSSpec(cpu_units=1),
    )
    return soft, comp


def build_package(compress=True, signer=None, big_payload=False):
    soft, comp = make_descriptors()
    builder = PackageBuilder(soft, comp)
    builder.add_idl("decoder", "interface Out { void f(); };")
    size = 50_000 if big_payload else 500
    builder.add_binary("bin/linux-x86/impl",
                       synthetic_payload(size, seed=1))
    builder.add_binary("bin/palmos-arm/impl",
                       synthetic_payload(size // 10, seed=2))
    return builder.build(compress=compress, signer=signer)


class TestBinaryRegistry:
    def test_register_and_resolve(self):
        reg = BinaryRegistry()
        fn = lambda: "impl"
        reg.register("a.b", fn)
        assert reg.resolve("a.b") is fn
        assert "a.b" in reg

    def test_duplicate_rejected_unless_same(self):
        reg = BinaryRegistry()
        fn = lambda: 1
        reg.register("x", fn)
        reg.register("x", fn)  # idempotent
        with pytest.raises(ConfigurationError):
            reg.register("x", lambda: 2)
        reg.register("x", lambda: 3, replace=True)

    def test_unknown_entry_point(self):
        with pytest.raises(ConfigurationError):
            BinaryRegistry().resolve("ghost")


class TestSyntheticPayload:
    def test_deterministic(self):
        assert synthetic_payload(100, seed=4) == synthetic_payload(100, seed=4)
        assert synthetic_payload(100, seed=4) != synthetic_payload(100, seed=5)

    def test_compressibility_controls_deflate_ratio(self):
        incompressible = synthetic_payload(10_000, compressibility=0.0)
        compressible = synthetic_payload(10_000, compressibility=1.0)
        assert len(zlib.compress(compressible)) < \
            len(zlib.compress(incompressible)) / 10

    def test_size_validation(self):
        with pytest.raises(ConfigurationError):
            synthetic_payload(-1)
        with pytest.raises(ConfigurationError):
            synthetic_payload(10, compressibility=2.0)

    def test_exact_size(self):
        assert len(synthetic_payload(1234, compressibility=0.3)) == 1234


class TestPackageBuild:
    def test_roundtrip(self):
        pkg = ComponentPackage(build_package())
        assert pkg.name == "Decoder"
        assert str(pkg.version) == "1.0.0"
        assert SOFTPKG_PATH in pkg.members()
        assert COMPONENT_PATH in pkg.members()
        assert pkg.idl_sources() == {
            "idl/decoder.idl": "interface Out { void f(); };"
        }

    def test_descriptor_names_must_agree(self):
        soft, _ = make_descriptors("A")
        _, comp = make_descriptors("B")
        with pytest.raises(PackageError):
            PackageBuilder(soft, comp)

    def test_declared_binary_must_be_added(self):
        soft, comp = make_descriptors()
        builder = PackageBuilder(soft, comp)
        builder.add_binary("bin/linux-x86/impl", b"x")
        with pytest.raises(PackageError, match="missing"):
            builder.build()

    def test_undeclared_binary_rejected(self):
        soft, comp = make_descriptors()
        builder = PackageBuilder(soft, comp)
        builder.add_binary("bin/linux-x86/impl", b"x")
        builder.add_binary("bin/palmos-arm/impl", b"y")
        builder.add_binary("bin/rogue/impl", b"z")
        with pytest.raises(PackageError, match="not declared"):
            builder.build()

    def test_binary_path_prefix_enforced(self):
        soft, comp = make_descriptors()
        with pytest.raises(PackageError):
            PackageBuilder(soft, comp).add_binary("oops/impl", b"x")

    def test_not_a_zip_rejected(self):
        with pytest.raises(PackageError):
            ComponentPackage(b"definitely not a zip")

    def test_compression_shrinks_compressible_packages(self):
        compressed = build_package(compress=True, big_payload=True)
        stored = build_package(compress=False, big_payload=True)
        assert len(compressed) < len(stored)


class TestPlatformSelection:
    def test_binary_payload_per_platform(self):
        pkg = ComponentPackage(build_package())
        lin = pkg.member(
            pkg.implementation_for("linux", "x86", "corba-lc").binary_path)
        pda = pkg.member(pkg.implementation_for(
            "palmos", "arm", "corba-lc-micro").binary_path)
        assert len(lin) == 500
        assert len(pda) == 50

    def test_unsupported_platform(self):
        pkg = ComponentPackage(build_package())
        assert pkg.implementation_for("win32", "x86", "corba-lc") is None

    def test_extract_subset_keeps_only_platform_binary(self):
        pkg = ComponentPackage(build_package(big_payload=True))
        sub = pkg.extract_subset("palmos", "arm", "corba-lc-micro")
        assert sub.name == pkg.name
        assert sub.implementation_for("palmos", "arm", "corba-lc-micro")
        assert sub.implementation_for("linux", "x86", "corba-lc") is None
        assert sub.size < pkg.size / 2        # dropped the big binary
        assert sub.idl_sources() == pkg.idl_sources()

    def test_extract_subset_unsupported_platform(self):
        pkg = ComponentPackage(build_package())
        with pytest.raises(PackageError):
            pkg.extract_subset("beos", "ppc", "tao")


class TestSignatures:
    def test_sign_and_verify(self):
        registry = VendorKeyRegistry()
        registry.register_vendor("acme")
        pkg = ComponentPackage(build_package(signer=registry))
        assert pkg.is_signed()
        assert pkg.verify_signature(registry) == "acme"

    def test_unsigned_package_fails_verification(self):
        registry = VendorKeyRegistry()
        pkg = ComponentPackage(build_package())
        assert not pkg.is_signed()
        with pytest.raises(SignatureError, match="unsigned"):
            pkg.verify_signature(registry)

    def test_tampered_content_detected(self):
        import io
        import zipfile

        registry = VendorKeyRegistry()
        data = build_package(signer=registry)
        pkg = ComponentPackage(data)
        # Rebuild the archive with one payload flipped.
        members = {name: pkg.member(name) for name in pkg.members()}
        members["bin/linux-x86/impl"] = b"evil" + members["bin/linux-x86/impl"][4:]
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            for name, payload in members.items():
                zf.writestr(name, payload)
        tampered = ComponentPackage(buf.getvalue())
        with pytest.raises(SignatureError, match="mismatch"):
            tampered.verify_signature(registry)

    def test_unknown_vendor_rejected(self):
        signer = VendorKeyRegistry()
        pkg = ComponentPackage(build_package(signer=signer))
        other = VendorKeyRegistry(secret=b"different-root")
        # 'acme' is unknown to the verifying registry until registered;
        # once registered, the key differs, so the digest check fails.
        with pytest.raises(SignatureError, match="unknown vendor"):
            pkg.verify_signature(other)
        other.register_vendor("acme")
        with pytest.raises(SignatureError, match="mismatch"):
            pkg.verify_signature(other)

    def test_signature_stable_per_content(self):
        registry = VendorKeyRegistry()
        assert build_package(signer=registry) == build_package(signer=registry)
