#include "layout/gdsii.hh"

#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace hifi
{
namespace layout
{

namespace
{

// GDSII record types used here.
enum RecordType : uint8_t
{
    kHeader = 0x00,
    kBgnLib = 0x01,
    kLibName = 0x02,
    kUnits = 0x03,
    kEndLib = 0x04,
    kBgnStr = 0x05,
    kStrName = 0x06,
    kEndStr = 0x07,
    kBoundary = 0x08,
    kSref = 0x0A,
    kLayer = 0x0D,
    kSname = 0x12,
    kDataType = 0x0E,
    kXy = 0x10,
    kEndEl = 0x11,
};

// GDSII data type codes (second byte of the record header).
enum DataType : uint8_t
{
    kNoData = 0x00,
    kInt16 = 0x02,
    kInt32 = 0x03,
    kReal8 = 0x05,
    kAscii = 0x06,
};

void
putU16(std::ostream &os, uint16_t v)
{
    const char buf[2] = {static_cast<char>(v >> 8),
                         static_cast<char>(v & 0xFF)};
    os.write(buf, 2);
}

void
putU32(std::ostream &os, uint32_t v)
{
    const char buf[4] = {
        static_cast<char>(v >> 24), static_cast<char>((v >> 16) & 0xFF),
        static_cast<char>((v >> 8) & 0xFF), static_cast<char>(v & 0xFF)};
    os.write(buf, 4);
}

void
putU64(std::ostream &os, uint64_t v)
{
    putU32(os, static_cast<uint32_t>(v >> 32));
    putU32(os, static_cast<uint32_t>(v & 0xFFFFFFFFull));
}

void
writeRecordHeader(std::ostream &os, uint16_t length, uint8_t rec_type,
                  uint8_t data_type)
{
    putU16(os, length);
    os.put(static_cast<char>(rec_type));
    os.put(static_cast<char>(data_type));
}

void
writeI16Record(std::ostream &os, uint8_t rec_type, int16_t value)
{
    writeRecordHeader(os, 6, rec_type, kInt16);
    putU16(os, static_cast<uint16_t>(value));
}

void
writeStringRecord(std::ostream &os, uint8_t rec_type,
                  const std::string &s)
{
    // Strings are padded to even length.
    const size_t padded = s.size() + (s.size() % 2);
    writeRecordHeader(os, static_cast<uint16_t>(4 + padded), rec_type,
                      kAscii);
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
    if (s.size() % 2)
        os.put('\0');
}

uint16_t
readU16(std::istream &is)
{
    unsigned char buf[2];
    is.read(reinterpret_cast<char *>(buf), 2);
    if (!is)
        throw std::runtime_error("GDSII: truncated stream");
    return static_cast<uint16_t>((buf[0] << 8) | buf[1]);
}

struct Record
{
    uint8_t type;
    uint8_t dataType;
    std::vector<unsigned char> payload;
};

Record
readRecord(std::istream &is)
{
    const uint16_t length = readU16(is);
    if (length < 4)
        throw std::runtime_error("GDSII: bad record length");
    Record rec;
    rec.type = static_cast<uint8_t>(is.get());
    rec.dataType = static_cast<uint8_t>(is.get());
    rec.payload.resize(length - 4u);
    if (!rec.payload.empty()) {
        is.read(reinterpret_cast<char *>(rec.payload.data()),
                static_cast<std::streamsize>(rec.payload.size()));
    }
    if (!is)
        throw std::runtime_error("GDSII: truncated record");
    return rec;
}

int32_t
i32At(const std::vector<unsigned char> &p, size_t off)
{
    return static_cast<int32_t>(
        (static_cast<uint32_t>(p[off]) << 24) |
        (static_cast<uint32_t>(p[off + 1]) << 16) |
        (static_cast<uint32_t>(p[off + 2]) << 8) |
        static_cast<uint32_t>(p[off + 3]));
}

int16_t
i16At(const std::vector<unsigned char> &p, size_t off)
{
    return static_cast<int16_t>(
        (static_cast<uint16_t>(p[off]) << 8) |
        static_cast<uint16_t>(p[off + 1]));
}

} // namespace

namespace detail
{

uint64_t
encodeGdsReal(double value)
{
    if (value == 0.0)
        return 0;
    uint64_t sign = 0;
    if (value < 0.0) {
        sign = 1ull << 63;
        value = -value;
    }
    // Find exponent e (base 16, excess 64) with mantissa in [1/16, 1).
    int exponent = 0;
    while (value >= 1.0) {
        value /= 16.0;
        ++exponent;
    }
    while (value < 1.0 / 16.0) {
        value *= 16.0;
        --exponent;
    }
    const auto mantissa =
        static_cast<uint64_t>(value * std::pow(2.0, 56));
    return sign |
        (static_cast<uint64_t>(exponent + 64) << 56) |
        (mantissa & 0x00FFFFFFFFFFFFFFull);
}

double
decodeGdsReal(uint64_t bits)
{
    if ((bits & 0x7FFFFFFFFFFFFFFFull) == 0)
        return 0.0;
    const bool negative = (bits >> 63) & 1;
    const int exponent = static_cast<int>((bits >> 56) & 0x7F) - 64;
    const double mantissa =
        static_cast<double>(bits & 0x00FFFFFFFFFFFFFFull) /
        std::pow(2.0, 56);
    const double value = mantissa * std::pow(16.0, exponent);
    return negative ? -value : value;
}

} // namespace detail

namespace
{

void
writeBoundary(std::ostream &os, const Shape &shape)
{
    writeRecordHeader(os, 4, kBoundary, kNoData);
    writeI16Record(os, kLayer,
                   static_cast<int16_t>(gdsLayerNumber(shape.layer)));
    writeI16Record(os, kDataType, 0);

    // Closed rectangle: 5 points, first repeated last.
    const auto &r = shape.rect;
    const auto x0 = static_cast<int32_t>(std::llround(r.x0));
    const auto y0 = static_cast<int32_t>(std::llround(r.y0));
    const auto x1 = static_cast<int32_t>(std::llround(r.x1));
    const auto y1 = static_cast<int32_t>(std::llround(r.y1));
    writeRecordHeader(os, 4 + 40, kXy, kInt32);
    const int32_t pts[10] = {x0, y0, x1, y0, x1, y1, x0, y1, x0, y0};
    for (int32_t v : pts)
        putU32(os, static_cast<uint32_t>(v));

    writeRecordHeader(os, 4, kEndEl, kNoData);
}

void
writeStructure(std::ostream &os, const Cell &cell, bool flatten)
{
    writeRecordHeader(os, 4 + 24, kBgnStr, kInt16);
    for (int i = 0; i < 12; ++i)
        putU16(os, 0);
    writeStringRecord(os, kStrName, cell.name());

    if (flatten) {
        for (const auto &shape : cell.flatten())
            writeBoundary(os, shape);
    } else {
        for (const auto &shape : cell.shapes())
            writeBoundary(os, shape);
        for (const auto &inst : cell.instances()) {
            writeRecordHeader(os, 4, kSref, kNoData);
            writeStringRecord(os, kSname, inst.cell->name());
            writeRecordHeader(os, 4 + 8, kXy, kInt32);
            putU32(os, static_cast<uint32_t>(static_cast<int32_t>(
                           std::llround(inst.offset.x))));
            putU32(os, static_cast<uint32_t>(static_cast<int32_t>(
                           std::llround(inst.offset.y))));
            writeRecordHeader(os, 4, kEndEl, kNoData);
        }
    }
    writeRecordHeader(os, 4, kEndStr, kNoData);
}

/// Emit child structures depth-first, each unique cell once.
void
emitChildren(std::ostream &os, const Cell &cell,
             std::vector<const Cell *> &done)
{
    for (const auto &inst : cell.instances()) {
        const Cell *child = inst.cell.get();
        bool seen = false;
        for (const Cell *c : done)
            if (c == child)
                seen = true;
        if (seen)
            continue;
        emitChildren(os, *child, done);
        writeStructure(os, *child, false);
        done.push_back(child);
    }
}

} // namespace

void
writeGds(std::ostream &os, const Cell &cell, const GdsOptions &options)
{
    // HEADER: GDSII version 600.
    writeI16Record(os, kHeader, 600);

    // BGNLIB: creation + modification timestamps (12 int16s); zeros keep
    // the output deterministic and diffable.
    writeRecordHeader(os, 4 + 24, kBgnLib, kInt16);
    for (int i = 0; i < 12; ++i)
        putU16(os, 0);

    writeStringRecord(os, kLibName, options.libraryName);

    // UNITS: db-units per user unit, db-unit in meters.
    writeRecordHeader(os, 4 + 16, kUnits, kReal8);
    putU64(os, detail::encodeGdsReal(1.0 / options.dbPerUserUnit));
    putU64(os, detail::encodeGdsReal(options.dbUnitMeters));

    if (!options.flatten) {
        std::vector<const Cell *> done;
        emitChildren(os, cell, done);
    }
    writeStructure(os, cell, options.flatten);
    writeRecordHeader(os, 4, kEndLib, kNoData);
}

void
writeGdsFile(const std::string &path, const Cell &cell,
             const GdsOptions &options)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        throw std::runtime_error("writeGdsFile: cannot open " + path);
    writeGds(os, cell, options);
}

Cell
readGds(std::istream &is)
{
    // Structures may reference earlier structures via SREF; the
    // writer emits children first, so references resolve in order.
    std::vector<std::shared_ptr<Cell>> cells;
    auto find_cell =
        [&](const std::string &name) -> std::shared_ptr<Cell> {
        for (const auto &c : cells)
            if (c->name() == name)
                return c;
        throw std::runtime_error("GDSII: SREF to unknown structure " +
                                 name);
    };
    auto payload_string = [](const Record &rec) {
        std::string out(rec.payload.begin(), rec.payload.end());
        while (!out.empty() && out.back() == '\0')
            out.pop_back();
        return out;
    };

    std::string cell_name = "unnamed";
    std::vector<Shape> shapes;
    std::vector<Instance> instances;

    enum class Element { None, Boundary, Sref };
    Element element = Element::None;
    std::string sref_name;
    Layer current_layer = Layer::Active;
    bool done = false;

    while (!done) {
        const Record rec = readRecord(is);
        switch (rec.type) {
          case kHeader:
          case kBgnLib:
          case kLibName:
          case kUnits:
          case kDataType:
            break;
          case kBgnStr:
            shapes.clear();
            instances.clear();
            cell_name = "unnamed";
            break;
          case kStrName:
            cell_name = payload_string(rec);
            break;
          case kBoundary:
            element = Element::Boundary;
            break;
          case kSref:
            element = Element::Sref;
            sref_name.clear();
            break;
          case kSname:
            sref_name = payload_string(rec);
            break;
          case kLayer:
            if (rec.payload.size() >= 2) {
                const int number = i16At(rec.payload, 0);
                try {
                    current_layer = layerFromGdsNumber(number);
                } catch (const std::invalid_argument &) {
                    throw std::runtime_error("GDSII: unknown layer " +
                                             std::to_string(number));
                }
            }
            break;
          case kXy: {
            if (element == Element::Boundary) {
                if (rec.payload.size() < 40)
                    throw std::runtime_error(
                        "GDSII: XY too short for rect");
                const double x0 = i32At(rec.payload, 0);
                const double y0 = i32At(rec.payload, 4);
                const double x1 = i32At(rec.payload, 16);
                const double y1 = i32At(rec.payload, 20);
                shapes.emplace_back(
                    common::Rect(std::min(x0, x1), std::min(y0, y1),
                                 std::max(x0, x1), std::max(y0, y1)),
                    current_layer);
            } else if (element == Element::Sref) {
                if (rec.payload.size() < 8)
                    throw std::runtime_error(
                        "GDSII: XY too short for SREF");
                Instance inst;
                inst.cell = find_cell(sref_name);
                inst.offset = {
                    static_cast<double>(i32At(rec.payload, 0)),
                    static_cast<double>(i32At(rec.payload, 4))};
                instances.push_back(std::move(inst));
            }
            break;
          }
          case kEndEl:
            element = Element::None;
            break;
          case kEndStr: {
            auto cell = std::make_shared<Cell>(cell_name);
            for (auto &sh : shapes)
                cell->addShape(std::move(sh));
            for (auto &inst : instances)
                cell->addInstance(inst.cell, inst.offset);
            cells.push_back(std::move(cell));
            shapes.clear();
            instances.clear();
            break;
          }
          case kEndLib:
            done = true;
            break;
          default:
            // Skip unknown records (forward compatibility).
            break;
        }
    }

    if (cells.empty())
        throw std::runtime_error("GDSII: no structures in library");
    return *cells.back();
}

Cell
readGdsFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("readGdsFile: cannot open " + path);
    return readGds(is);
}

} // namespace layout
} // namespace hifi
