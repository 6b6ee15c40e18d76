module mermaid

go 1.23
