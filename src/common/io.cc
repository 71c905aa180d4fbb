#include "common/io.hh"

#include "common/log.hh"

namespace mnoc {

FileWriter::FileWriter(const std::string &path, bool binary)
    : path_(path),
      out_(path, binary ? std::ios::out | std::ios::binary
                        : std::ios::out)
{
    if (!out_.is_open())
        fatal("cannot open file for write: " + path_);
}

FileWriter::~FileWriter()
{
    if (closed_)
        return;
    out_.flush();
    if (!out_.good())
        warn("failed writing file (disk full or I/O error): " +
             path_);
}

void
FileWriter::failIfBad()
{
    if (!out_.good())
        fatal("failed writing file (disk full or I/O error): " + path_);
}

void
FileWriter::close()
{
    if (closed_)
        return;
    out_.flush();
    if (!out_.good())
        fatal("failed writing file (disk full or I/O error): " + path_);
    out_.close();
    if (out_.fail())
        fatal("failed closing file (disk full or I/O error): " + path_);
    closed_ = true;
}

} // namespace mnoc
